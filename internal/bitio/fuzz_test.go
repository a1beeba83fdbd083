package bitio

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// serialWriter is the bit-serial writer that Writer's accumulator
// replaced, kept as its oracle: one bit per loop turn, one append per
// byte.
type serialWriter struct {
	buf  []byte
	cur  byte // partially filled byte
	nCur uint // valid bits in cur (0..7)
}

func (s *serialWriter) writeBits(v uint64, n uint) {
	for i := n; i > 0; i-- {
		s.cur = s.cur<<1 | byte(v>>(i-1))&1
		s.nCur++
		if s.nCur == 8 {
			s.buf = append(s.buf, s.cur)
			s.cur, s.nCur = 0, 0
		}
	}
}

func (s *serialWriter) len() int { return len(s.buf)*8 + int(s.nCur) }

func (s *serialWriter) bytes() []byte {
	out := bytes.Clone(s.buf)
	if s.nCur > 0 {
		out = append(out, s.cur<<(8-s.nCur))
	}
	return out
}

// FuzzWriter writes an arbitrary sequence of (value, width) pairs through
// Writer and through the bit-serial oracle, and checks Len and Bytes
// after every write. The first input byte sets how many bytes the Writer
// appends to (NewWriter) and how much spare capacity that slice has; each
// later 9-byte group is a width (mod 65) and a big-endian value, whose
// bits above the width must be ignored. Inputs stop at maxOps writes,
// since each write compares the whole buffer.
func FuzzWriter(f *testing.F) {
	const maxOps = 256
	f.Add([]byte{0})
	f.Add([]byte{0, 3, 0, 0, 0, 0, 0, 0, 0, 5, 2, 0, 0, 0, 0, 0, 0, 0, 1, 3, 0, 0, 0, 0, 0, 0, 0, 6})
	f.Add([]byte{0x23, 64, 0xde, 0xad, 0xbe, 0xef, 0xca, 0xfe, 0xba, 0xbe, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1+9*maxOps {
			return
		}
		n, spare := int(data[0]&7), int(data[0]>>3)
		prefix := make([]byte, n, n+spare)
		for i := range prefix {
			prefix[i] = byte(0xa0 + i)
		}
		w := NewWriter(prefix)
		ref := serialWriter{buf: bytes.Clone(prefix)}
		for ops := data[1:]; len(ops) >= 9; ops = ops[9:] {
			n := uint(ops[0]) % 65
			v := binary.BigEndian.Uint64(ops[1:9])
			w.WriteBits(v, n)
			ref.writeBits(v, n)
			if w.Len() != ref.len() {
				t.Fatalf("after writing %d bits of %#x: Len = %d, want %d", n, v, w.Len(), ref.len())
			}
			if got, want := w.Bytes(), ref.bytes(); !bytes.Equal(got, want) {
				t.Fatalf("after writing %d bits of %#x: Bytes = %x, want %x", n, v, got, want)
			}
		}
	})
}
