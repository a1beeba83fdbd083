package riscv

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand/v2"
	"testing"
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

var decodeSink Inst

// BenchmarkDecodeSeeded decodes 64K seeded words, reporting ns per word.
func BenchmarkDecodeSeeded(b *testing.B) {
	words := seededWords(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeSink = Decode(words[i&(1<<16-1)])
	}
}
