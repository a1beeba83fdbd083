package mips

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ccrp/internal/isa"
)

// The pins below hash what Decode, Encode and Disassemble return over a
// fixed set of inputs. Their constants were computed with the per-op
// decode switches and the separate encoding table that the instruction
// table replaced, so any change in what the table derives shows here.
const (
	decodePinSHA256      = "bb54a6e10d1dcf95d27ce63f2b96f6c0d48de58762057759edc97d50c17c14c8"
	encodePinSHA256      = "99ff8601e51ea05b1ce3200ab1d359ba2edc51f52301a39f880c72bc15be353e"
	disassemblePinSHA256 = "ee657462c9a4081c7774164bd736ecc0fb661bd32034beb82cb98f140046fd9c"
)

// assemblePinSHA256 hashes what InstSize and EncodeInst return in
// TestAssemblePinned. It was computed with the per-form encoders that
// the operand table replaced.
const assemblePinSHA256 = "f1983b17abc968b6ac7cf3f9df3732fb41c2400a20c1a855602a08bc1b480d1c"

// pinHash feeds bytes to a SHA-256 through one buffer, so that hashing
// millions of short records costs a few large writes.
type pinHash struct {
	h   hash.Hash
	buf []byte
}

func newPinHash() *pinHash { return &pinHash{h: sha256.New(), buf: make([]byte, 0, 1<<16)} }

func (p *pinHash) flush() {
	if len(p.buf) > 1<<16-64 {
		p.h.Write(p.buf)
		p.buf = p.buf[:0]
	}
}

func (p *pinHash) sum() string {
	p.h.Write(p.buf)
	return hex.EncodeToString(p.h.Sum(nil))
}

// inst appends every field of i.
func (p *pinHash) inst(i Inst) {
	p.buf = binary.LittleEndian.AppendUint32(p.buf, uint32(i.Raw))
	p.buf = append(p.buf, byte(i.Op), i.Rs, i.Rt, i.Rd, i.Shamt)
	p.buf = binary.LittleEndian.AppendUint16(p.buf, i.Imm)
	p.buf = binary.LittleEndian.AppendUint32(p.buf, i.Target)
	p.flush()
}

// seededWords returns n words from a fixed seed.
func seededWords(n int) []Word {
	rng := rand.NewPCG(1992, 31)
	words := make([]Word, n)
	for i := range words {
		words[i] = Word(rng.Uint64())
	}
	return words
}

// TestDecodePinned decodes every opcode, rs, rt and funct combination
// (the fields that select an operation) and 2^20 seeded words, and
// hashes every field of each Inst.
func TestDecodePinned(t *testing.T) {
	p := newPinHash()
	for x := uint32(0); x < 1<<22; x++ {
		p.inst(Decode(Word(x>>16<<26 | x>>11&31<<21 | x>>6&31<<16 | x&63)))
	}
	for _, w := range seededWords(1 << 20) {
		p.inst(Decode(w))
	}
	if got := p.sum(); got != decodePinSHA256 {
		t.Errorf("Decode hash %s, want %s", got, decodePinSHA256)
	}
}

// TestEncodePinned encodes every valid operation with 256 seeded sets
// of in-range fields and hashes the words.
func TestEncodePinned(t *testing.T) {
	rng := rand.NewPCG(1992, 32)
	p := newPinHash()
	for op := Op(1); op < numOps; op++ {
		for range 256 {
			r := rng.Uint64()
			i := Inst{Op: op, Rs: uint8(r & 31), Rt: uint8(r >> 5 & 31), Rd: uint8(r >> 10 & 31),
				Shamt: uint8(r >> 15 & 31), Imm: uint16(r >> 20), Target: uint32(r>>36) & 0x03FFFFFF}
			p.buf = binary.LittleEndian.AppendUint32(p.buf, uint32(Encode(i)))
			p.flush()
		}
	}
	if got := p.sum(); got != encodePinSHA256 {
		t.Errorf("Encode hash %s, want %s", got, encodePinSHA256)
	}
}

// TestDisassemblePinned disassembles 2^16 words at one pc: every
// opcode, rs and rt combination once, each with seeded low 16 bits.
func TestDisassemblePinned(t *testing.T) {
	p := newPinHash()
	for k, w := range seededWords(1 << 16) {
		p.buf = append(p.buf, Disassemble(Word(k)<<16|w&0xFFFF, 0x00400100)...)
		p.buf = append(p.buf, '\n')
		p.flush()
	}
	if got := p.sum(); got != disassemblePinSHA256 {
		t.Errorf("Disassemble hash %s, want %s", got, disassemblePinSHA256)
	}
}

// pinSym is the address pinEval gives sym. Its low half has the sign
// bit set, so a symbol-form access must carry into the high half.
const pinSym = 0x10008010

// pinEval is the assembler pin's expression evaluator: a number as
// strconv reads it, sym or sym+4, each in at most one pair of
// parentheses. With syms false it refuses the symbols, as the
// assembler's pass 1 does.
func pinEval(syms bool) isa.Evaluator {
	return func(s string) (uint32, error) {
		s = strings.TrimSpace(s)
		if len(s) > 1 && s[0] == '(' && s[len(s)-1] == ')' {
			s = s[1 : len(s)-1]
		}
		if s == "sym" || s == "sym+4" {
			if !syms {
				return 0, fmt.Errorf("symbol %q not allowed here (constant required)", s)
			}
			if s == "sym" {
				return pinSym, nil
			}
			return pinSym + 4, nil
		}
		v, err := strconv.ParseInt(s, 0, 64)
		if err != nil {
			return 0, fmt.Errorf("bad expression %q", s)
		}
		return uint32(v), nil
	}
}

// pinOperands returns the assembler pin's operand candidates for a
// statement at pc. The first ten are the short list that the first two
// operands of a three-operand statement take.
func pinOperands(pc uint32) []string {
	x := func(v uint32) string { return fmt.Sprintf("%#x", v) }
	next := pc + 4 // branches count from the delay slot
	return []string{
		// Registers: canonical, numeric, alias, unknown, no sigil; FP
		// registers: even, odd, out of range.
		"$t0", "$31", "$s8", "$q9", "t0", "$f2", "$f3", "$f32", "0", "8($sp)",
		// Shift amounts and immediates at each width's edges and one past.
		"31", "32", "-32768", "32767", "-32769", "32768", "65535", "65536", "0xfffff", "0x100000",
		// Memory operands: no offset, a parenthesized expression, the
		// symbol forms, an offset out of range, an unknown base.
		"($a0)", "(8)", "sym", "sym+4", "-32769($t0)", "4($q9)",
		// Branch targets at the range edges and one past, misaligned and
		// below 0; jump targets at the end of region 0 and in region 1.
		x(next + 0x1FFFC), x(next - 0x20000), x(next + 0x20000), x(next - 0x20004),
		x(pc + 2), "0xfffffff0", "0x0ffffffc", "0x10000000",
	}
}

// TestAssemblePinned assembles every mnemonic the backend accepts with
// zero to four operands from pinOperands, at two pcs, and hashes what
// InstSize and EncodeInst return: each size and word, or the error.
// Statements take every one- and two-operand combination, three
// operands whose first two come from the short list, and four that
// only need an operand count.
func TestAssemblePinned(t *testing.T) {
	names := make([]string, 0, len(mnemonics))
	for name := range mnemonics {
		names = append(names, name)
	}
	slices.Sort(names)
	if len(names) != 114 {
		t.Errorf("%d mnemonics, want 114", len(names))
	}
	p := newPinHash()
	pass1, pass2 := pinEval(false), pinEval(true)
	var be Backend
	stmt := func(op string, args []string, pc uint32) {
		p.buf = append(p.buf, op...)
		for _, a := range args {
			p.buf = append(p.buf, 0x1f)
			p.buf = append(p.buf, a...)
		}
		p.buf = append(p.buf, '\n')
		if n, err := be.InstSize(op, args, pass1); err != nil {
			p.buf = append(p.buf, err.Error()...)
		} else {
			p.buf = strconv.AppendInt(p.buf, int64(n), 10)
		}
		p.buf = append(p.buf, '\n')
		dst := []isa.Word{0xDEADBEEF}
		out, err := be.EncodeInst(dst, op, args, pc, pass2)
		if err != nil {
			p.buf = append(p.buf, err.Error()...)
		}
		if out[0] != 0xDEADBEEF {
			t.Fatalf("%s %v: EncodeInst overwrote dst", op, args)
		}
		p.buf = append(p.buf, byte(len(out)))
		for _, w := range out[1:] {
			p.buf = binary.LittleEndian.AppendUint32(p.buf, uint32(w))
		}
		p.buf = append(p.buf, '\n')
		p.flush()
	}
	for _, pc := range []uint32{0x1000, 0x0FFFFFFC} {
		cand := pinOperands(pc)
		short := cand[:10]
		for _, op := range names {
			stmt(op, nil, pc)
			for _, a := range cand {
				stmt(op, []string{a}, pc)
				stmt(op, []string{cand[0], cand[1], cand[2], a}, pc)
				for _, b := range cand {
					stmt(op, []string{a, b}, pc)
				}
			}
			for _, a := range short {
				for _, b := range short {
					for _, c := range cand {
						stmt(op, []string{a, b, c}, pc)
					}
				}
			}
		}
	}
	if got := p.sum(); got != assemblePinSHA256 {
		t.Errorf("assembler hash %s, want %s", got, assemblePinSHA256)
	}
}

var decodeSink Inst

// BenchmarkDecodeSeeded decodes 64K seeded words, reporting ns per word.
func BenchmarkDecodeSeeded(b *testing.B) {
	words := seededWords(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeSink = Decode(words[i&(1<<16-1)])
	}
}
