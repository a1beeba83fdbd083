package huffman

import (
	"math/rand"
	"testing"

	"ccrp/internal/bitio"
)

// testCodes builds a spread of code shapes: skewed bounded (the
// preselected-code shape), flat, unbounded traditional with long tails,
// and the degenerate single-symbol code.
func testCodes(tb testing.TB) map[string]*Code {
	tb.Helper()
	codes := map[string]*Code{}

	var skew Histogram
	for i := 0; i < 256; i++ {
		skew[i] = uint64(1 + (i*i)%97)
	}
	skew[0] = 1 << 20
	c, err := BuildBounded(&skew, 16)
	if err != nil {
		tb.Fatal(err)
	}
	codes["bounded16-skewed"] = c

	var flat Histogram
	for i := 0; i < 256; i++ {
		flat[i] = 1
	}
	if c, err = BuildBounded(&flat, 16); err != nil {
		tb.Fatal(err)
	}
	codes["bounded16-flat"] = c

	var steep Histogram
	for i := 0; i < 64; i++ {
		steep[i] = 1 << uint(i%40) // forces very long traditional codewords
	}
	if c, err = BuildTraditional(&steep); err != nil {
		tb.Fatal(err)
	}
	codes["traditional-steep"] = c

	var one Histogram
	one[42] = 7
	if c, err = BuildTraditional(&one); err != nil {
		tb.Fatal(err)
	}
	codes["degenerate-one-symbol"] = c

	return codes
}

// encodable returns bytes that have codewords under c.
func encodable(c *Code, rng *rand.Rand, n int) []byte {
	var syms []byte
	for s := 0; s < 256; s++ {
		if c.Len(byte(s)) > 0 {
			syms = append(syms, byte(s))
		}
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = syms[rng.Intn(len(syms))]
	}
	return out
}

// corpus-shaped benchmark stream shared by the Decode benchmarks: a
// zero-heavy stream (like real machine code) encoded under a bounded
// code trained on its own histogram — the production shape, where the
// coder is always trained on the corpus it later decodes.
func benchStream(tb testing.TB) (*Code, []byte, int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 32*1024)
	for i := range data {
		// Zero-heavy, like real machine code.
		if rng.Intn(4) != 0 {
			data[i] = 0
		} else {
			data[i] = byte(rng.Intn(256))
		}
	}
	var h Histogram
	for _, s := range data {
		h[s]++
	}
	code, err := BuildBounded(&h, 16)
	if err != nil {
		tb.Fatal(err)
	}
	enc, err := code.EncodeToBytes(data)
	if err != nil {
		tb.Fatal(err)
	}
	return code, enc, len(data)
}

func BenchmarkDecodeCanonical(b *testing.B) {
	code, enc, n := benchStream(b)
	out := make([]byte, n)
	b.SetBytes(int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := code.Decode(bitio.NewReader(enc), out); err != nil {
			b.Fatal(err)
		}
	}
}
