package bitio

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadSingleBits(t *testing.T) {
	var w Writer
	pattern := []byte{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range pattern {
		w.WriteBits(uint64(b), 1)
	}
	if got := w.Len(); got != len(pattern) {
		t.Fatalf("Len = %d, want %d", got, len(pattern))
	}
	r := NewReader(w.Bytes())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if got != want {
			t.Errorf("bit %d = %d, want %d", i, got, want)
		}
	}
}

func TestWriteBitsKnownLayout(t *testing.T) {
	var w Writer
	w.WriteBits(0b101, 3)
	w.WriteBits(0b01, 2)
	w.WriteBits(0b110, 3)
	// 10101110 -> 0xAE
	got := w.Bytes()
	if !bytes.Equal(got, []byte{0xAE}) {
		t.Fatalf("Bytes = %x, want ae", got)
	}
}

func TestBytesPadsWithoutMutating(t *testing.T) {
	var w Writer
	w.WriteBits(0b1, 1)
	first := w.Bytes()
	if !bytes.Equal(first, []byte{0x80}) {
		t.Fatalf("Bytes = %x, want 80", first)
	}
	// Writer must still be usable: continue from bit 1, not from padding.
	w.WriteBits(0b1111111, 7)
	if got := w.Bytes(); !bytes.Equal(got, []byte{0xFF}) {
		t.Fatalf("after continuation Bytes = %x, want ff", got)
	}
}

func TestReadBitsMultiWidth(t *testing.T) {
	var w Writer
	w.WriteBits(0xDEADBEEFCAFE, 48)
	r := NewReader(w.Bytes())
	hi, err := r.ReadBits(24)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := r.ReadBits(24)
	if err != nil {
		t.Fatal(err)
	}
	if hi != 0xDEADBE || lo != 0xEFCAFE {
		t.Fatalf("got %06x %06x", hi, lo)
	}
}

func TestReadPastEnd(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(9); err != ErrShortStream {
		t.Fatalf("err = %v, want ErrShortStream", err)
	}
	// Failed read must not consume anything.
	if v, err := r.ReadBits(8); err != nil || v != 0xFF {
		t.Fatalf("after failed read got %x, %v", v, err)
	}
	if _, err := r.ReadBits(1); err != ErrShortStream {
		t.Fatalf("err = %v, want ErrShortStream", err)
	}
}

func TestPeekBits(t *testing.T) {
	r := NewReader([]byte{0b10110011})
	v, avail := r.PeekBits(4)
	if v != 0b1011 || avail != 4 {
		t.Fatalf("peek = %04b avail %d", v, avail)
	}
	if r.Pos() != 0 {
		t.Fatalf("peek consumed bits: pos=%d", r.Pos())
	}
	if err := r.Skip(6); err != nil {
		t.Fatal(err)
	}
	// Only 2 bits remain; peek of 4 must zero-fill and report avail=2.
	v, avail = r.PeekBits(4)
	if avail != 2 || v != 0b1100 {
		t.Fatalf("tail peek = %04b avail %d, want 1100 avail 2", v, avail)
	}
}

// TestSkipAndAlign: Skip moves the read position by whole bits, so
// skipping the rest of a byte aligns the reader to the next one.
func TestSkipAndAlign(t *testing.T) {
	r := NewReader([]byte{0x00, 0xAB})
	if err := r.Skip(3); err != nil {
		t.Fatal(err)
	}
	if err := r.Skip(8 - uint(r.Pos()%8)); err != nil || r.Pos() != 8 {
		t.Fatalf("pos after skipping to the byte boundary = %d (%v), want 8", r.Pos(), err)
	}
	v, err := r.ReadBits(8)
	if err != nil || v != 0xAB {
		t.Fatalf("got %x, %v", v, err)
	}
	if r.Pos() != 16 {
		t.Fatalf("pos at the end = %d, want 16", r.Pos())
	}
	if err := r.Skip(1); err != ErrShortStream {
		t.Fatalf("skip past end err = %v", err)
	}
}

func TestWriterReset(t *testing.T) {
	var w Writer
	w.WriteBits(0xFFFF, 16)
	w.WriteBits(0x1, 3)
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len after reset = %d", w.Len())
	}
	w.WriteBits(0xA5, 8)
	if got := w.Bytes(); !bytes.Equal(got, []byte{0xA5}) {
		t.Fatalf("after reset Bytes = %x", got)
	}
}

func TestZeroWidthOps(t *testing.T) {
	var w Writer
	w.WriteBits(0, 0)
	if w.Len() != 0 {
		t.Fatalf("zero-width write changed length")
	}
	r := NewReader(nil)
	if v, err := r.ReadBits(0); err != nil || v != 0 {
		t.Fatalf("zero-width read = %v, %v", v, err)
	}
}

// Property: any sequence of (value, width) writes reads back identically.
func TestRoundTripQuick(t *testing.T) {
	f := func(fields []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var w Writer
		type rec struct {
			v uint64
			n uint
		}
		var recs []rec
		for _, f := range fields {
			n := uint(rng.Intn(65))
			v := uint64(f) * uint64(rng.Int63())
			if n < 64 {
				v &= (1 << n) - 1
			}
			w.WriteBits(v, n)
			recs = append(recs, rec{v, n})
		}
		r := NewReader(w.Bytes())
		for _, rc := range recs {
			got, err := r.ReadBits(rc.n)
			if err != nil || got != rc.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: writing whole random byte slices through the bit writer is
// identity, aligned or shifted.
func TestBytesRoundTripQuick(t *testing.T) {
	f := func(p []byte, shift uint8) bool {
		s := uint(shift % 8)
		var w Writer
		w.WriteBits(0, s)
		for _, b := range p {
			w.WriteBits(uint64(b), 8)
		}
		r := NewReader(w.Bytes())
		if err := r.Skip(s); err != nil {
			return len(p) == 0 && s == 0
		}
		for _, want := range p {
			got, err := r.ReadBits(8)
			if err != nil || byte(got) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriterWriteBits(b *testing.B) {
	var w Writer
	for i := 0; i < b.N; i++ {
		if i%4096 == 0 {
			w.Reset()
		}
		w.WriteBits(uint64(i), uint(i%17))
	}
}

func BenchmarkReaderReadBits(b *testing.B) {
	var w Writer
	for i := 0; i < 4096; i++ {
		w.WriteBits(uint64(i), 13)
	}
	buf := w.Bytes()
	b.ResetTimer()
	r := NewReader(buf)
	for i := 0; i < b.N; i++ {
		if r.Pos()+13 > len(buf)*8 {
			r = NewReader(buf)
		}
		if _, err := r.ReadBits(13); err != nil {
			b.Fatal(err)
		}
	}
}
