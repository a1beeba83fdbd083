package codepack

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// fuzzCoder trains one fixed coder for the fuzz targets from a small
// deterministic RISC-like corpus.
func fuzzCoder(tb testing.TB) *Coder {
	text := make([]byte, 4096)
	state := uint32(0x2bad_f00d)
	for off := 0; off+4 <= len(text); off += 4 {
		state = state*1664525 + 1013904223
		// Bias the halfword distribution the way real code does: few
		// distinct uppers (opcodes), a heavier lower tail (immediates).
		word := state&0x000f_ffff | uint32(off%64)<<22
		binary.LittleEndian.PutUint32(text[off:], word)
	}
	c, err := Train(text)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// FuzzDecodeLine hardens the server-facing decode path: arbitrary
// compressed bytes and output lengths must never panic — malformed input
// returns an error (ErrBadLine or a bit-stream underrun), nothing else.
func FuzzDecodeLine(f *testing.F) {
	coder := fuzzCoder(f)
	line := make([]byte, 32)
	for i := range line {
		line[i] = byte(i * 7)
	}
	enc, err := coder.AppendLine(nil, line)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc, 32)
	f.Add([]byte{}, 32)
	f.Add(enc[:len(enc)/2], 32)
	f.Add(enc, -4)
	f.Add(enc, 7)
	f.Add([]byte{0xff, 0xff, 0xff}, 8)

	f.Fuzz(func(t *testing.T, comp []byte, n int) {
		if n > 4096 {
			n %= 4096 // bound the output allocation, not the search space
		}
		out, err := coder.DecodeLine(comp, n)
		if err != nil {
			return
		}
		if len(out) != n {
			t.Fatalf("DecodeLine returned %d bytes, want %d", len(out), n)
		}
		// Anything that decodes must re-encode to a prefix-compatible
		// stream: decode(encode(out)) is out again.
		re, err := coder.AppendLine(nil, out)
		if err != nil {
			t.Fatalf("re-encoding accepted output: %v", err)
		}
		back, err := coder.DecodeLine(re, n)
		if err != nil {
			t.Fatalf("round trip of accepted output: %v", err)
		}
		if !bytes.Equal(back, out) {
			t.Fatal("accepted output does not round-trip")
		}
	})
}

// FuzzTrainEncodeDecode exercises the full train/encode/decode cycle on
// arbitrary corpora: training either fails cleanly or produces a coder
// whose round trip is the identity.
func FuzzTrainEncodeDecode(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(bytes.Repeat([]byte{0xAA, 0x55}, 64))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, corpus []byte) {
		coder, err := Train(corpus)
		if err != nil {
			return
		}
		line := make([]byte, 32)
		copy(line, corpus)
		enc, err := coder.AppendLine(nil, line)
		if err != nil {
			t.Fatalf("AppendLine on trained corpus line: %v", err)
		}
		dec, err := coder.DecodeLine(enc, len(line))
		if err != nil {
			t.Fatalf("DecodeLine of own encoding: %v", err)
		}
		if !bytes.Equal(dec, line) {
			t.Fatal("encode/decode round trip mismatch")
		}
	})
}

// FuzzUnmarshalCoder hardens the store-facing decode of a serialized
// coder: arbitrary bytes either fail to unmarshal or give a coder that
// decodes arbitrary lines with at worst an error, and whose every
// successful AppendLine decodes back to the line.
func FuzzUnmarshalCoder(f *testing.F) {
	blob, err := fuzzCoder(f).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	line := make([]byte, 32)
	for i := range line {
		line[i] = byte(i * 7)
	}
	f.Add(blob, line)

	f.Fuzz(func(t *testing.T, p, line []byte) {
		c, err := UnmarshalCoder(p)
		if err != nil {
			return
		}
		line = line[:min(len(line), 64)/4*4]
		dst := make([]byte, len(line))
		_ = c.DecodeLineInto(dst, line) // arbitrary bytes: an error at worst
		enc, err := c.AppendLine(nil, line)
		if err != nil {
			return
		}
		if err := c.DecodeLineInto(dst, enc); err != nil || !bytes.Equal(dst, line) {
			t.Fatalf("AppendLine(%x) = %x decodes to (%x, %v)", line, enc, dst, err)
		}
	})
}

// TestDecodeLineNegativeLength pins the hardened error path: a negative
// word-aligned length must return ErrBadLine, not panic in make.
func TestDecodeLineNegativeLength(t *testing.T) {
	coder := fuzzCoder(t)
	if _, err := coder.DecodeLine([]byte{0x00}, -4); !errors.Is(err, ErrBadLine) {
		t.Fatalf("DecodeLine(comp, -4) error = %v, want ErrBadLine", err)
	}
}
