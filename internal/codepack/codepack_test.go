package codepack

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

// riscWords synthesizes instruction-like words: skewed upper halves
// (opcodes/registers) and mostly-small lower halves (immediates).
func riscWords(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n*4)
	uppers := []uint16{0x2508, 0x8D28, 0xADBF, 0x0109, 0x3C04, 0x1120, 0x0C00, 0x03E0}
	for i := 0; i < n; i++ {
		var w uint32
		switch rng.Intn(10) {
		case 0: // rare arbitrary word (forces escapes)
			w = rng.Uint32()
		default:
			up := uppers[rng.Intn(len(uppers))]
			lo := uint16(rng.Intn(64) * 4)
			w = uint32(up)<<16 | uint32(lo)
		}
		binary.LittleEndian.PutUint32(out[i*4:], w)
	}
	return out
}

func trained(t testing.TB) (*Coder, []byte) {
	t.Helper()
	corpus := riscWords(8192, 1)
	c, err := Train(corpus)
	if err != nil {
		t.Fatal(err)
	}
	return c, corpus
}

func TestRoundTripLine(t *testing.T) {
	c, corpus := trained(t)
	for off := 0; off+32 <= 2048; off += 32 {
		line := corpus[off : off+32]
		enc, err := c.AppendLine(nil, line)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := c.DecodeLine(enc, 32)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dec, line) {
			t.Fatalf("line at %#x corrupted", off)
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	c, _ := trained(t)
	f := func(words []uint32) bool {
		if len(words) == 0 {
			return true
		}
		line := make([]byte, len(words)*4)
		for i, w := range words {
			binary.LittleEndian.PutUint32(line[i*4:], w)
		}
		enc, err := c.AppendLine(nil, line)
		if err != nil {
			return false
		}
		dec, err := c.DecodeLine(enc, len(line))
		if err != nil {
			return false
		}
		return bytes.Equal(dec, line)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// encodedBits is a line's encoded size, the sum of its BitLengths.
func encodedBits(t *testing.T, c *Coder, line []byte) int {
	t.Helper()
	lens, err := c.BitLengths(line)
	if err != nil {
		t.Fatal(err)
	}
	bits := 0
	for _, l := range lens {
		bits += int(l)
	}
	return bits
}

// TestEncodedBitsExact: a line's BitLengths sum to the size the encoder
// writes, the size core.BuildROM stores the line at.
func TestEncodedBitsExact(t *testing.T) {
	c, corpus := trained(t)
	for off := 0; off+32 <= 2048; off += 32 {
		line := corpus[off : off+32]
		enc, err := c.AppendLine(nil, line)
		if err != nil {
			t.Fatal(err)
		}
		if want := (encodedBits(t, c, line) + 7) / 8; len(enc) != want {
			t.Errorf("line at %#x: BitLengths sum to %d bytes, encoder produced %d", off, want, len(enc))
		}
	}
}

func TestCompressesTypicalCode(t *testing.T) {
	c, corpus := trained(t)
	bits := 0
	for off := 0; off+32 <= len(corpus); off += 32 {
		bits += encodedBits(t, c, corpus[off:off+32])
	}
	ratio := float64(bits) / float64(len(corpus)*8)
	if ratio >= 0.80 {
		t.Errorf("codepack ratio on its own corpus = %.3f, expected well under 0.80", ratio)
	}
}

func TestEscapesStillDecode(t *testing.T) {
	c, _ := trained(t)
	// A line of entirely unseen halfwords: every one escapes.
	line := make([]byte, 32)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint32(line[i*4:], 0xF00D0000+uint32(i)*0x01010101)
	}
	enc, err := c.AppendLine(nil, line)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.DecodeLine(enc, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, line) {
		t.Fatal("escape-only line corrupted")
	}
	if bits := encodedBits(t, c, line); bits <= 16*16 {
		t.Errorf("escape-only line coded in %d bits; must exceed 256 raw bits", bits)
	}
}

func TestErrors(t *testing.T) {
	c, _ := trained(t)
	if _, err := c.AppendLine(nil, make([]byte, 30)); err == nil {
		t.Error("unaligned line accepted")
	}
	if _, err := c.DecodeLine(nil, 30); err == nil {
		t.Error("unaligned decode accepted")
	}
	if _, err := c.DecodeLine([]byte{0xFF}, 32); err == nil {
		t.Error("truncated stream accepted")
	}
	if _, err := c.BitLengths(make([]byte, 3)); err == nil {
		t.Error("short BitLengths line accepted")
	}
	if _, err := Train(); err == nil {
		t.Error("empty corpus accepted")
	}
	if c.DictionaryBytes() == 0 {
		t.Error("empty dictionaries")
	}
}

func BenchmarkAppendLine(b *testing.B) {
	c, corpus := trained(b)
	line := corpus[:32]
	b.SetBytes(32)
	for i := 0; i < b.N; i++ {
		if _, err := c.AppendLine(nil, line); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeLine(b *testing.B) {
	c, corpus := trained(b)
	enc, err := c.AppendLine(nil, corpus[:32])
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecodeLine(enc, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCoderMarshalRoundTrip: a serialized-and-restored coder encodes and
// decodes byte-identically to the original — the property the durable
// artifact store relies on.
func TestCoderMarshalRoundTrip(t *testing.T) {
	text := make([]byte, 0, 4096)
	for i := 0; i < 1024; i++ {
		w := uint32(i*2654435761) ^ uint32(i%7)<<16
		text = append(text, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	orig, err := Train(text)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalCoder(blob)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off+32 <= len(text); off += 32 {
		line := text[off : off+32]
		a, err := orig.AppendLine(nil, line)
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.AppendLine(nil, line)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("line at %d: restored coder encodes differently", off)
		}
		dec, err := back.DecodeLine(a, 32)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dec, line) {
			t.Fatalf("line at %d: restored coder decodes wrong bytes", off)
		}
	}

	if _, err := UnmarshalCoder([]byte("not a gob stream")); err == nil {
		t.Fatal("UnmarshalCoder accepted garbage")
	}
}
