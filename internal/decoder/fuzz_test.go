package decoder

import (
	"bytes"
	"errors"
	"testing"

	"ccrp/internal/bitio"
	"ccrp/internal/huffman"
)

// fuzzCode is the shared 16-bit-bounded code the fuzz targets decode
// under — the same skewed shape the huffman package fuzzes with.
func fuzzCode(tb testing.TB) *huffman.Code {
	tb.Helper()
	var h huffman.Histogram
	for i := 0; i < 256; i++ {
		h[i] = uint64(1 + (i*i)%97)
	}
	code, err := huffman.BuildBounded(&h, 16)
	if err != nil {
		tb.Fatal(err)
	}
	return code
}

// decodeOK reports whether err is one of the two legal failure classes
// for a hostile stream: a clean stream-format rejection or truncation.
// Anything else (panic is caught by the fuzz driver) fails the target.
func decodeOK(tb testing.TB, model string, err error) {
	tb.Helper()
	if err == nil {
		return
	}
	if errors.Is(err, ErrBadStream) || errors.Is(err, bitio.ErrShortStream) {
		return
	}
	tb.Fatalf("%s: unexpected error class: %v", model, err)
}

// seedCorpus adds a valid encoding, a truncation of it, and byte soup.
func seedCorpus(f *testing.F, code *huffman.Code) {
	sample, err := code.EncodeToBytes([]byte("decoder fuzz seed material"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sample, 26)
	f.Add(sample[:len(sample)/2], 26)
	f.Add([]byte{}, 4)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, 99)
	f.Add([]byte{0x00}, 1)
}

// FuzzFSMDecode: the bit-serial model must reject malformed streams with
// ErrBadStream/ErrShortStream, never panic or run away, and must agree
// with the canonical software decoder bit for bit.
func FuzzFSMDecode(f *testing.F) {
	code := fuzzCode(f)
	fsm, err := NewFSM(code)
	if err != nil {
		f.Fatal(err)
	}
	seedCorpus(f, code)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 {
			n = -n
		}
		n %= 2048
		out := make([]byte, n)
		r := bitio.NewReader(data)
		_, err := fsm.Decode(r, out)
		decodeOK(t, "fsm", err)

		want := make([]byte, n)
		wr := bitio.NewReader(data)
		wantErr := code.Decode(wr, want)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("fsm err=%v, canonical err=%v", err, wantErr)
		}
		if err == nil && (!bytes.Equal(out, want) || r.Pos() != wr.Pos()) {
			t.Fatal("fsm diverges from canonical decoder")
		}
	})
}

// FuzzCAMDecode: the content-addressable model under hostile input.
func FuzzCAMDecode(f *testing.F) {
	code := fuzzCode(f)
	cam := NewCAM(code)
	seedCorpus(f, code)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 {
			n = -n
		}
		n %= 2048
		out := make([]byte, n)
		r := bitio.NewReader(data)
		err := cam.Decode(r, out)
		decodeOK(t, "cam", err)

		want := make([]byte, n)
		wr := bitio.NewReader(data)
		wantErr := code.Decode(wr, want)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("cam err=%v, canonical err=%v", err, wantErr)
		}
		if err == nil && (!bytes.Equal(out, want) || r.Pos() != wr.Pos()) {
			t.Fatal("cam diverges from canonical decoder")
		}
	})
}

// FuzzROMDecode: the 64K-entry mapping-ROM model under hostile input.
func FuzzROMDecode(f *testing.F) {
	code := fuzzCode(f)
	rom := NewROM(code)
	seedCorpus(f, code)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 {
			n = -n
		}
		n %= 2048
		out := make([]byte, n)
		r := bitio.NewReader(data)
		err := rom.Decode(r, out)
		decodeOK(t, "rom", err)

		want := make([]byte, n)
		wr := bitio.NewReader(data)
		wantErr := code.Decode(wr, want)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("rom err=%v, canonical err=%v", err, wantErr)
		}
		if err == nil && (!bytes.Equal(out, want) || r.Pos() != wr.Pos()) {
			t.Fatal("rom diverges from canonical decoder")
		}
	})
}

// FuzzMultiVsHardwareModels ties the tentpole together: on any input, the
// software MultiDecoder and all three hardware models either all succeed
// with identical output and bit position, or all fail.
func FuzzMultiVsHardwareModels(f *testing.F) {
	code := fuzzCode(f)
	multi := huffman.NewMultiDecoder(code)
	fsm, err := NewFSM(code)
	if err != nil {
		f.Fatal(err)
	}
	cam := NewCAM(code)
	rom := NewROM(code)
	seedCorpus(f, code)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 {
			n = -n
		}
		n %= 2048

		multiOut := make([]byte, n)
		multiR := bitio.NewReader(data)
		multiErr := multi.Decode(multiR, multiOut)
		decodeOK(t, "multi", multiErr)

		models := []struct {
			name   string
			decode func(r *bitio.Reader, out []byte) error
		}{
			{"fsm", func(r *bitio.Reader, out []byte) error { _, err := fsm.Decode(r, out); return err }},
			{"cam", cam.Decode},
			{"rom", rom.Decode},
		}
		for _, m := range models {
			out := make([]byte, n)
			r := bitio.NewReader(data)
			err := m.decode(r, out)
			if (err == nil) != (multiErr == nil) {
				t.Fatalf("%s err=%v, multi err=%v", m.name, err, multiErr)
			}
			if err == nil && (!bytes.Equal(out, multiOut) || r.Pos() != multiR.Pos()) {
				t.Fatalf("%s diverges from MultiDecoder", m.name)
			}
		}
	})
}
