package mips

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand/v2"
	"testing"
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

var decodeSink Inst

// BenchmarkDecodeSeeded decodes 64K seeded words, reporting ns per word.
func BenchmarkDecodeSeeded(b *testing.B) {
	words := seededWords(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeSink = Decode(words[i&(1<<16-1)])
	}
}
