package huffman

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"ccrp/internal/bitio"
)

// TestMultiDecoderMatchesCanonical is the core differential guarantee for
// the multi-symbol kernel: identical symbols and identical final bit
// positions on valid streams, for every code shape and chunk width,
// through both the reader-driven Decode and the zero-padded DecodeBytes
// entry points.
func TestMultiDecoderMatchesCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for name, code := range testCodes(t) {
		for _, chunk := range []int{1, 3, 8, MultiChunkBits, 16} {
			md := NewMultiDecoderChunk(code, chunk)
			for trial := 0; trial < 50; trial++ {
				data := encodable(code, rng, 1+rng.Intn(200))
				enc, err := code.EncodeToBytes(data)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want := make([]byte, len(data))
				wr := bitio.NewReader(enc)
				if err := code.Decode(wr, want); err != nil {
					t.Fatalf("%s: canonical decode: %v", name, err)
				}
				got := make([]byte, len(data))
				gr := bitio.NewReader(enc)
				if err := md.Decode(gr, got); err != nil {
					t.Fatalf("%s chunk %d: multi decode: %v", name, chunk, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s chunk %d: decoded bytes differ", name, chunk)
				}
				if gr.Pos() != wr.Pos() {
					t.Fatalf("%s chunk %d: bit position %d != canonical %d",
						name, chunk, gr.Pos(), wr.Pos())
				}
				gotBytes, err := md.DecodeBytes(enc, len(data))
				if err != nil {
					t.Fatalf("%s chunk %d: multi DecodeBytes: %v", name, chunk, err)
				}
				if !bytes.Equal(gotBytes, want) {
					t.Fatalf("%s chunk %d: DecodeBytes output differs", name, chunk)
				}
			}
		}
	}
}

// TestMultiDecoderPacking: on a skewed bounded code the 12-bit root must
// actually pack multiple symbols into entries — otherwise the kernel
// degenerates to a one-symbol-per-lookup table decoder.
func TestMultiDecoderPacking(t *testing.T) {
	code := testCodes(t)["bounded16-skewed"]
	md := NewMultiDecoder(code)
	var counts [MaxPack + 1]int // root entries by symbols per lookup; 0 = pointer or invalid
	for _, e := range md.table[:1<<md.rootBits] {
		if e>>62 == mEntLeaf {
			counts[int(e>>59)&3]++
		} else {
			counts[0]++
		}
	}
	multi := 0
	for k := 2; k <= MaxPack; k++ {
		multi += counts[k]
	}
	if multi == 0 {
		t.Fatalf("no multi-symbol entries in root table (counts %v)", counts)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 1<<md.rootBits {
		t.Fatalf("pack counts sum %d != root entries %d", total, 1<<md.rootBits)
	}
}

// TestMultiDecoderErrorParity checks that truncated and garbage streams
// fail (or succeed) in lockstep with the canonical decoder.
func TestMultiDecoderErrorParity(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for name, code := range testCodes(t) {
		md := NewMultiDecoder(code)
		for trial := 0; trial < 400; trial++ {
			buf := make([]byte, rng.Intn(12))
			rng.Read(buf)
			n := rng.Intn(3 * (len(buf) + 1))

			want, wantErr := code.DecodeBytes(buf, n)
			got, gotErr := md.DecodeBytes(buf, n)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s: error parity: canonical err=%v, multi err=%v (buf=%x n=%d)",
					name, wantErr, gotErr, buf, n)
			}
			if wantErr == nil && !bytes.Equal(got, want) {
				t.Fatalf("%s: outputs differ on %x", name, buf)
			}
		}
	}
}

// TestMultiDecoderShortStream pins the truncation and bad-length error
// classes on the multi kernel's entry points.
func TestMultiDecoderShortStream(t *testing.T) {
	code := testCodes(t)["bounded16-skewed"]
	md := NewMultiDecoder(code)
	if _, err := md.DecodeBytes(nil, 1); !errors.Is(err, bitio.ErrShortStream) {
		t.Fatalf("empty stream error = %v, want ErrShortStream", err)
	}
	if _, err := md.DecodeBytes([]byte{0xFF}, -1); !errors.Is(err, ErrBadCode) {
		t.Fatalf("negative length error = %v, want ErrBadCode", err)
	}
	out := make([]byte, 1)
	if err := md.DecodeInto(out, nil); !errors.Is(err, bitio.ErrShortStream) {
		t.Fatalf("DecodeInto empty stream error = %v, want ErrShortStream", err)
	}
}

// TestMultiMemoized: Code.Multi returns one shared decoder.
func TestMultiMemoized(t *testing.T) {
	code := testCodes(t)["bounded16-flat"]
	if code.Multi() != code.Multi() {
		t.Fatal("Code.Multi is not memoized")
	}
	if md := code.Multi(); md.rootBits > MultiChunkBits {
		t.Fatalf("root bits %d exceed chunk %d", md.rootBits, MultiChunkBits)
	} else if len(md.table) < 1<<md.rootBits {
		t.Fatalf("table holds %d entries, fewer than its %d-bit root", len(md.table), md.rootBits)
	}
}

// TestMultiDecoderInterleaved mirrors codepack's usage: DecodeSymbol
// interleaved with raw ReadBits on the same reader must consume exactly
// one codeword per call and stay in sync with the canonical decoder.
func TestMultiDecoderInterleaved(t *testing.T) {
	code := testCodes(t)["bounded16-skewed"]
	md := NewMultiDecoder(code)
	rng := rand.New(rand.NewSource(7))

	var w bitio.Writer
	var syms []byte
	var lits []uint64
	for i := 0; i < 64; i++ {
		s := encodable(code, rng, 1)[0]
		syms = append(syms, s)
		bits, n := code.Codeword(s)
		w.WriteBits(bits, uint(n))
		lit := uint64(rng.Intn(1 << 16))
		lits = append(lits, lit)
		w.WriteBits(lit, 16)
	}
	enc := w.Bytes()

	r := bitio.NewReader(enc)
	cr := bitio.NewReader(enc)
	for i := range syms {
		s, err := md.DecodeSymbol(r)
		if err != nil {
			t.Fatalf("symbol %d: %v", i, err)
		}
		if s != syms[i] {
			t.Fatalf("symbol %d = %#x, want %#x", i, s, syms[i])
		}
		if _, err := code.DecodeSymbol(cr); err != nil {
			t.Fatalf("canonical symbol %d: %v", i, err)
		}
		if r.Pos() != cr.Pos() {
			t.Fatalf("after symbol %d: pos %d != canonical %d", i, r.Pos(), cr.Pos())
		}
		lit, err := r.ReadBits(16)
		if err != nil {
			t.Fatalf("literal %d: %v", i, err)
		}
		if lit != lits[i] {
			t.Fatalf("literal %d = %#x, want %#x", i, lit, lits[i])
		}
		cr.Skip(16)
	}
}

// TestDecodeIntoZeroAlloc pins the line-decode hot path at 0 allocs/op:
// a pre-built decoder filling a caller-supplied buffer must not touch
// the heap.
func TestDecodeIntoZeroAlloc(t *testing.T) {
	code := testCodes(t)["bounded16-skewed"]
	rng := rand.New(rand.NewSource(13))
	data := encodable(code, rng, 32)
	enc, err := code.EncodeToBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	md := code.Multi()
	dst := make([]byte, len(data))

	if n := testing.AllocsPerRun(200, func() {
		if err := md.DecodeInto(dst, enc); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("MultiDecoder.DecodeInto allocates %.1f/op, want 0", n)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("DecodeInto round-trip mismatch")
	}
}

// TestMultiDecoderSpeedup is the CI guard behind the multi-symbol kernel:
// it must beat the canonical bit-serial decoder by a wide margin on a
// corpus-shaped stream. The threshold sits well under the typical ratio
// so scheduler noise cannot flake it.
func TestMultiDecoderSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped with -short")
	}
	if raceEnabled {
		t.Skip("timing comparison skipped under the race detector")
	}
	code, enc, n := benchStream(t)
	md := NewMultiDecoder(code)
	out := make([]byte, n)

	measure := func(decode func() error) float64 {
		best := time.Duration(1 << 62)
		for trial := 0; trial < 3; trial++ {
			start := time.Now()
			if err := decode(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best.Seconds()
	}
	canonical := measure(func() error {
		_, err := code.DecodeBytes(enc, n)
		return err
	})
	multi := measure(func() error { return md.DecodeInto(out, enc) })
	if speedup := canonical / multi; speedup < 3 {
		t.Fatalf("multi decoder speedup %.2fx < 3x over canonical (canonical %.3fms, multi %.3fms)",
			speedup, canonical*1e3, multi*1e3)
	}
}

// FuzzMultiDecoderDifferential feeds arbitrary byte soup to the
// canonical and multi-symbol decoders and requires identical outcomes:
// same success/failure, same symbols, same consumed bit count.
func FuzzMultiDecoderDifferential(f *testing.F) {
	code := fuzzBoundedCode(f)
	md := NewMultiDecoder(code)
	sample, err := code.EncodeToBytes([]byte("multi differential fuzz seed"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sample, 28)
	f.Add([]byte{}, 1)
	f.Add([]byte{0xFF, 0x00}, 64)
	f.Add(sample[:len(sample)/2], 28)

	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 {
			n = -n
		}
		n %= 4096
		want := make([]byte, n)
		wr := bitio.NewReader(data)
		wantErr := code.Decode(wr, want)

		got := make([]byte, n)
		gr := bitio.NewReader(data)
		gotErr := md.Decode(gr, got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error parity: canonical=%v multi=%v", wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatal("decoded symbols differ")
		}
		if gr.Pos() != wr.Pos() {
			t.Fatalf("bit position %d != canonical %d", gr.Pos(), wr.Pos())
		}
	})
}

func BenchmarkDecodeMulti(b *testing.B) {
	code, enc, n := benchStream(b)
	md := NewMultiDecoder(code)
	out := make([]byte, n)
	b.SetBytes(int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := md.DecodeInto(out, enc); err != nil {
			b.Fatal(err)
		}
	}
}
