#!/bin/sh
# ISA-backend smoke: the same logical program (sum 1..10, print 55) is
# assembled and simulated on every registered backend through the
# ccasm/ccsim/ccdis flow, so a regression in the isa abstraction layer —
# wrong backend picked from an image, a disassembler/parser drift, a
# broken executor — fails the build with the stage named. The mips image
# also goes through ccpack -o and ccdis -rom, so the CROM write/read/
# decompress path is checked at the binary level. Finishes with the RVC
# expansion gates: the known 16-bit -> 32-bit vectors and the exhaustive
# expand/compress differential over all 65536 halfwords.
#
# Usage: sh scripts/isa_smoke.sh
set -eu
# pipefail surfaces failures on the left side of pipes; it is not in
# POSIX sh everywhere, so probe for it instead of assuming bash.
(set -o pipefail 2>/dev/null) && set -o pipefail

cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail() {
	echo "isa_smoke: FAILED at stage: $1" >&2
	exit 1
}

cat > "$TMP/sum.mips.s" <<'EOF'
	.text
__start:
	li	$t0, 10
	li	$t1, 0
loop:
	addu	$t1, $t1, $t0
	addiu	$t0, $t0, -1
	bne	$t0, $zero, loop
	move	$a0, $t1
	li	$v0, 1
	syscall
	li	$v0, 10
	syscall
EOF

cat > "$TMP/sum.rv32.s" <<'EOF'
	.text
__start:
	li	t0, 10
	li	t1, 0
loop:
	add	t1, t1, t0
	addi	t0, t0, -1
	bnez	t0, loop
	mv	a0, t1
	li	a7, 1
	ecall
	li	a7, 10
	ecall
EOF

for ISA in mips rv32; do
	echo "== ccasm -isa $ISA"
	go run ./cmd/ccasm -isa "$ISA" -o "$TMP/sum.$ISA.img" "$TMP/sum.$ISA.s" \
		|| fail "ccasm $ISA"

	echo "== ccasm -l (listing disassembles through the $ISA backend)"
	go run ./cmd/ccasm -isa "$ISA" -l "$TMP/sum.$ISA.s" > "$TMP/sum.$ISA.lst" \
		|| fail "ccasm -l $ISA"

	echo "== ccdis (image carries isa=$ISA)"
	go run ./cmd/ccdis "$TMP/sum.$ISA.img" > "$TMP/sum.$ISA.dis" || fail "ccdis $ISA"

	echo "== ccsim (simulate on the $ISA executor)"
	go run ./cmd/ccsim -q -json "$TMP/sum.$ISA.img" > "$TMP/sum.$ISA.json" \
		|| fail "ccsim $ISA"
done

echo "== ccpack -o + ccdis -rom (mips image through a CROM file)"
go run ./cmd/ccpack -o "$TMP/sum.mips.rom" "$TMP/sum.mips.img" > /dev/null || fail "ccpack mips"
go run ./cmd/ccdis -rom "$TMP/sum.mips.rom" > "$TMP/sum.mips.romdis" || fail "ccdis -rom mips"
# The ROM text is padded to whole 32-byte lines, so its listing has
# extra trailing lines; the plain image listing must be its prefix.
n=$(wc -l < "$TMP/sum.mips.dis")
head -n "$n" "$TMP/sum.mips.romdis" | cmp -s - "$TMP/sum.mips.dis" || fail "ccdis -rom listing"

# Both backends must compute the same answer from their own encodings.
grep -q "syscall" "$TMP/sum.mips.dis" || fail "mips disassembly content"
grep -q "ecall" "$TMP/sum.rv32.dis" || fail "rv32 disassembly content"
for ISA in mips rv32; do
	go run ./cmd/ccsim -cache 1024 "$TMP/sum.$ISA.img" > "$TMP/run.$ISA.txt" \
		|| fail "ccsim output $ISA"
	OUT=$(head -1 "$TMP/run.$ISA.txt")
	case "$OUT" in
	55*) ;;
	*) echo "isa_smoke: $ISA printed '$OUT', want 55" >&2; fail "program output $ISA" ;;
	esac
done
echo "both backends print 55"

echo "== rv32 workload through the full sweep path"
go run ./cmd/ccsim -workload rv-sieve -q > "$TMP/rv-sieve.txt" || fail "ccsim -workload rv-sieve"
grep -q "relative performance" "$TMP/rv-sieve.txt" || fail "rv-sieve report"

echo "== RVC expansion vectors + expand/compress differential (65536 halfwords)"
go test -run '^TestExpand(Vectors|Rejects|CompressDifferential)$' -count=1 ./internal/riscv \
	|| fail "rvc expansion gates"

echo "== cross-backend disassembly round trip (contract test)"
go test -run '^TestDisassemblyRoundTrip$' -count=1 ./internal/isa \
	|| fail "disassembly round trip"

echo "isa_smoke: OK"
