GO ?= go
STATICCHECK ?= honnef.co/go/tools/cmd/staticcheck@2025.1.1

.PHONY: all build test race vet fmt staticcheck check bench \
	serve-smoke decode-bench isa-smoke fuzz

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

# Pinned lint pass, run via `go run` so nothing is installed into the
# module. Requires network/module-cache access for the first run.
staticcheck:
	$(GO) run $(STATICCHECK) ./...

# The full hygiene gate: build + vet + gofmt + staticcheck + race tests.
check:
	sh scripts/check.sh

bench:
	$(GO) test -bench=. -benchmem -run=^$$

# Binary-level serving smoke: ccrpd and ccrp-router flag wiring, a
# round trip byte-compared against ccpack, one compress through the
# router, ccrp-spans over the daemon's -trace file, SIGTERM drains.
serve-smoke:
	sh scripts/serve_smoke.sh

# Decode-kernel benchmark: the multi-symbol kernel against the canonical
# oracle, MB/s as Go benchmarks.
decode-bench:
	$(GO) test -run=^$$ -bench='BenchmarkDecode(Canonical|Multi)$$' -benchmem ./internal/huffman

# ISA-backend smoke: assemble + simulate the same program on every
# registered backend (mips, rv32), RVC expansion vector and
# differential gates, and the cross-backend disassembly round trip.
isa-smoke:
	sh scripts/isa_smoke.sh

# Short fuzz pass over the decode hardening targets.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzDecodeLine -fuzztime=$(FUZZTIME) ./internal/codepack
	$(GO) test -run=^$$ -fuzz=FuzzDecode$$ -fuzztime=$(FUZZTIME) ./internal/huffman
	$(GO) test -run=^$$ -fuzz=FuzzMultiDecoderDifferential -fuzztime=$(FUZZTIME) ./internal/huffman
	$(GO) test -run=^$$ -fuzz=FuzzFSMDecode -fuzztime=$(FUZZTIME) ./internal/decoder
	$(GO) test -run=^$$ -fuzz=FuzzCAMDecode -fuzztime=$(FUZZTIME) ./internal/decoder
	$(GO) test -run=^$$ -fuzz=FuzzROMDecode -fuzztime=$(FUZZTIME) ./internal/decoder
	$(GO) test -run=^$$ -fuzz=FuzzMultiVsHardwareModels -fuzztime=$(FUZZTIME) ./internal/decoder
