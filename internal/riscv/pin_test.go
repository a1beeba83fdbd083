package riscv

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
// fixed set of inputs. Their constants were computed with the switch
// based Decode and Encode that the instruction table replaced, so any
// change in what the table derives shows here.
const (
	decodePinSHA256      = "8a7b29f620bdb9db9c41d9482bd09198a104fbce85c9e69a063d395082e1e36b"
	encodePinSHA256      = "005d6fa99582b1516c1fdac4eefd26df4d72da64ef2dec334f5585b7a1e1882c"
	disassemblePinSHA256 = "46e633b731acb1921ae3771604140f4c6c198a11d3b2e2b33623e3d845f5cc70"
)

// assemblePinSHA256 hashes what InstSize and EncodeInst return in
// TestAssemblePinned. It was computed with the per-form encoders that
// the operand table replaced.
const assemblePinSHA256 = "9460b5170eb83119eb362a0f1835205a660768b1247121203279d03918cde40f"

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
	p.buf = append(p.buf, byte(i.Op), i.Rd, i.Rs1, i.Rs2)
	p.buf = binary.LittleEndian.AppendUint32(p.buf, uint32(i.Imm))
	p.flush()
}

// seededWords returns n words from a fixed seed, each with one of the
// eleven base opcodes and a funct7 of 0, 1, 0x20 or seeded bits, so that
// most of them decode to an operation.
func seededWords(n int) []uint32 {
	opcodes := [...]uint32{0x03, 0x0F, 0x13, 0x17, 0x23, 0x33, 0x37, 0x63, 0x67, 0x6F, 0x73}
	funct7 := [...]uint32{0, 1, 0x20}
	rng := rand.NewPCG(1992, 41)
	words := make([]uint32, n)
	for i := range words {
		r := rng.Uint64()
		w := uint32(r)&^0x7F | opcodes[r>>32%uint64(len(opcodes))]
		if k := r >> 48 % 4; k < 3 {
			w = w&^0xFE000000 | funct7[k]<<25
		}
		words[i] = w
	}
	return words
}

// TestDecodePinned decodes every opcode, funct3, funct7 and rs2
// combination with rd and rs1 each 0 and 1 (the fields that select an
// operation), and 2^20 seeded words, and hashes every field of each
// Inst.
func TestDecodePinned(t *testing.T) {
	p := newPinHash()
	for x := uint32(0); x < 1<<24; x++ {
		opc, f3, f7, rs2 := x&0x7F, x>>7&7, x>>10&0x7F, x>>17&31
		rd, rs1 := x>>22&1, x>>23&1
		p.inst(Decode(f7<<25 | rs2<<20 | rs1<<15 | f3<<12 | rd<<7 | opc))
	}
	rng := rand.NewPCG(1992, 42)
	for range 1 << 20 {
		p.inst(Decode(uint32(rng.Uint64())))
	}
	if got := p.sum(); got != decodePinSHA256 {
		t.Errorf("Decode hash %s, want %s", got, decodePinSHA256)
	}
}

// TestEncodePinned encodes every valid operation with 256 seeded field
// sets, registers and immediate over their whole types, and hashes the
// words.
func TestEncodePinned(t *testing.T) {
	rng := rand.NewPCG(1992, 43)
	p := newPinHash()
	for op := Op(1); op < numOps; op++ {
		for range 256 {
			r := rng.Uint64()
			i := Inst{Op: op, Rd: uint8(r), Rs1: uint8(r >> 8), Rs2: uint8(r >> 16), Imm: int32(r >> 32)}
			p.buf = binary.LittleEndian.AppendUint32(p.buf, Encode(i))
			p.flush()
		}
	}
	if got := p.sum(); got != encodePinSHA256 {
		t.Errorf("Encode hash %s, want %s", got, encodePinSHA256)
	}
}

// TestDisassemblePinned disassembles 2^16 seeded words at one pc.
func TestDisassemblePinned(t *testing.T) {
	p := newPinHash()
	for _, w := range seededWords(1 << 16) {
		p.buf = append(p.buf, Disassemble(w, 0x00010100)...)
		p.buf = append(p.buf, '\n')
		p.flush()
	}
	if got := p.sum(); got != disassemblePinSHA256 {
		t.Errorf("Disassemble hash %s, want %s", got, disassemblePinSHA256)
	}
}

// pinSym is the address pinEval gives sym. Its low 12 bits have the
// sign bit set, so la must carry into the upper 20.
const pinSym = 0x10008810

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
// statement at pc. The first eight are the short list that the first
// two operands of a three-operand statement take.
func pinOperands(pc uint32) []string {
	x := func(v uint32) string { return fmt.Sprintf("%#x", v) }
	return []string{
		// Registers: ABI name, numeric, alias, out of range, MIPS
		// syntax, and an FP name RV32I does not have.
		"a0", "x31", "fp", "x32", "$t0", "f2", "0", "8(sp)",
		// Shift amounts and immediates at each width's edges and one past.
		"31", "32", "-1", "-2048", "2047", "-2049", "2048", "0xfffff", "0x100000",
		// Memory operands: no offset, a parenthesized expression, the
		// symbol forms, an offset out of range, an unknown base.
		"(a0)", "(8)", "sym", "sym+4", "2048(t0)", "4(x32)",
		// Branch and jal targets at the range edges and one past,
		// misaligned, below 0 and in another 256 MB region.
		x(pc - 4096), x(pc + 4094), x(pc - 4098), x(pc + 4096),
		x(pc - 1<<20), x(pc + 1<<20 - 2), x(pc - 1<<20 - 2), x(pc + 1<<20),
		x(pc + 1), "0xfffffff0", "0x10000000",
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
	if len(names) != 66 {
		t.Errorf("%d mnemonics, want 66", len(names))
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
	// At 0xFFFFF000 the forward targets wrap past 0.
	for _, pc := range []uint32{0x1000, 0xFFFFF000} {
		cand := pinOperands(pc)
		short := cand[:8]
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
