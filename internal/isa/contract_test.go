package isa_test

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"ccrp/internal/asm"
	"ccrp/internal/isa"
	_ "ccrp/internal/mips"  // register
	_ "ccrp/internal/riscv" // register
)

// TestRegistry checks lookup, default resolution, and the registered set.
func TestRegistry(t *testing.T) {
	names := isa.Names()
	want := map[string]bool{"mips": false, "rv32": false}
	for _, n := range names {
		if _, seen := want[n]; seen {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("backend %q not registered (have %v)", n, names)
		}
	}
	def, err := isa.Lookup("")
	if err != nil || def.Name() != isa.DefaultName {
		t.Errorf("Lookup(\"\") = %v, %v; want the %s default", def, err, isa.DefaultName)
	}
	if _, err := isa.Lookup("vax"); err == nil {
		t.Error("Lookup(vax) did not fail")
	}
}

// TestDisassemblyRoundTrip is the cross-backend contract property: for
// every word a backend enumerates, encode → disassemble → reassemble must
// reproduce the identical word. This pins the disassembler and the
// assembler to each other on both backends at once.
func TestDisassemblyRoundTrip(t *testing.T) {
	const pc = 0x1000 // inside any direct-jump region, room for negative offsets
	for _, name := range isa.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			arch := isa.MustLookup(name)
			enum, ok := arch.(isa.WordEnumerator)
			if !ok {
				t.Skipf("%s has no word enumerator", name)
			}
			words := enum.ContractWords()
			if len(words) < 20 {
				t.Fatalf("%s enumerates only %d words", name, len(words))
			}
			seen := map[isa.Word]bool{}
			for _, w := range words {
				if seen[w] {
					t.Errorf("%s: duplicate contract word %#08x", name, uint32(w))
					continue
				}
				seen[w] = true
				text := arch.Disassemble(w, pc)
				back, err := reassemble(name, text, pc)
				if err != nil {
					t.Errorf("%s: reassemble %q (from %#08x): %v", name, text, uint32(w), err)
					continue
				}
				if back != w {
					t.Errorf("%s: %#08x -> %q -> %#08x", name, uint32(w), text, uint32(back))
				}
				// Disassembly must be stable across the round trip.
				if again := arch.Disassemble(back, pc); again != text {
					t.Errorf("%s: unstable disassembly %q vs %q", name, text, again)
				}
			}
		})
	}
}

// FuzzDisassemblyRoundTrip extends TestDisassemblyRoundTrip from the
// contract words to any word: a word the backend's Decode marks valid
// must disassemble at pc 0x1000 to a line that assembles to exactly one
// word with the same mnemonic and the same disassembly. That word may
// differ from the fuzzed one in fields the disassembly does not show.
// The word is the first four bytes of w, little-endian and zero-padded;
// rv32 picks the backend.
func FuzzDisassemblyRoundTrip(f *testing.F) {
	const pc = 0x1000
	f.Fuzz(func(t *testing.T, w []byte, rv32 bool) {
		var b [4]byte
		copy(b[:], w)
		word := isa.Word(binary.LittleEndian.Uint32(b[:]))
		name := "mips"
		if rv32 {
			name = "rv32"
		}
		arch := isa.MustLookup(name)
		info := arch.Decode(word, pc)
		if !info.Valid {
			return
		}
		text := arch.Disassemble(word, pc)
		back, err := reassemble(name, text, pc)
		if err != nil {
			t.Fatalf("%s: reassemble %q (from %#08x): %v", name, text, uint32(word), err)
		}
		if m := arch.Decode(back, pc).Mnemonic; m != info.Mnemonic {
			t.Errorf("%s: %#08x (%s) -> %q -> %#08x (%s)", name, uint32(word), info.Mnemonic, text, uint32(back), m)
		}
		if again := arch.Disassemble(back, pc); again != text {
			t.Errorf("%s: %#08x -> %q -> %#08x -> %q", name, uint32(word), text, uint32(back), again)
		}
	})
}

// reassemble assembles one line for the named ISA at address pc and
// returns the one word it encodes to.
func reassemble(isaName, line string, pc uint32) (isa.Word, error) {
	p, err := asm.AssembleFor(isaName, "line.s", fmt.Sprintf(".text\n.space %d\n%s\n", pc, line))
	if err != nil {
		return 0, err
	}
	if n := len(p.Text) - int(pc); n != 4 {
		return 0, fmt.Errorf("%q assembles to %d bytes, want one word", line, n)
	}
	return isa.Word(binary.LittleEndian.Uint32(p.Text[pc:])), nil
}

// TestDecodeContract checks Info invariants every backend must uphold.
func TestDecodeContract(t *testing.T) {
	const pc = 0x1000
	for _, name := range isa.Names() {
		arch := isa.MustLookup(name)
		enum, ok := arch.(isa.WordEnumerator)
		if !ok {
			continue
		}
		if wb := arch.WordBytes(); wb != 4 {
			t.Errorf("%s: WordBytes = %d, want 4", name, wb)
		}
		for _, w := range enum.ContractWords() {
			info := arch.Decode(w, pc)
			if !info.Valid && uint32(w) != 0 {
				t.Errorf("%s: contract word %#08x decodes invalid", name, uint32(w))
				continue
			}
			if info.IsBranch && info.IsJump {
				t.Errorf("%s: %#08x is both branch and jump", name, uint32(w))
			}
			if info.IsLoad && info.IsStore {
				t.Errorf("%s: %#08x is both load and store", name, uint32(w))
			}
			if info.TargetKnown && !info.IsBranch && !info.IsJump {
				t.Errorf("%s: %#08x has a target but transfers no control", name, uint32(w))
			}
			if info.Valid && info.Mnemonic == "" {
				t.Errorf("%s: %#08x has no mnemonic", name, uint32(w))
			}
		}
	}
}

// TestRegNamingContract: names round-trip through RegNumber (which takes
// the name without the ISA's sigil) and out-of-range registers never
// render as plausible names.
func TestRegNamingContract(t *testing.T) {
	for _, name := range isa.Names() {
		arch := isa.MustLookup(name)
		bare := func(r uint8) string {
			return strings.TrimPrefix(arch.RegName(r), "$")
		}
		for r := uint8(0); r < 32; r++ {
			n, ok := arch.RegNumber(bare(r))
			if !ok || n != r {
				t.Errorf("%s: RegNumber(%q) = %d, %v; want %d", name, bare(r), n, ok, r)
			}
		}
		for _, r := range []uint8{32, 40, 255} {
			if _, ok := arch.RegNumber(bare(r)); ok {
				t.Errorf("%s: out-of-range register %d resolved", name, r)
			}
		}
	}
}
