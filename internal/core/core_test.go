package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ccrp/internal/huffman"
	"ccrp/internal/memory"
	"ccrp/internal/metrics"
	"ccrp/internal/trace"
)

// riscLikeText builds a deterministic pseudo-program whose byte histogram
// is skewed like real R2000 code (many zero bytes, clustered opcodes).
func riscLikeText(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 0, n)
	for len(out) < n {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // ALU op with small fields
			out = append(out, byte(rng.Intn(32)), byte(rng.Intn(64)), byte(rng.Intn(16)), 0x00)
		case 4, 5, 6: // load/store with small offset
			out = append(out, byte(rng.Intn(128)), 0x00, byte(0xBD+rng.Intn(2)), byte(0x8C+rng.Intn(4)))
		case 7, 8: // branch
			out = append(out, byte(rng.Intn(16)), 0x00, byte(0x40+rng.Intn(8)), 0x10)
		default: // lui / constants
			out = append(out, byte(rng.Intn(256)), byte(rng.Intn(4)), byte(rng.Intn(8)), 0x3C)
		}
	}
	return out[:n]
}

func testCode(t testing.TB, data []byte) *huffman.Code {
	t.Helper()
	c, err := huffman.BuildBounded(huffman.HistogramOf(data).Smooth(), 16)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildROMAndVerify(t *testing.T) {
	text := riscLikeText(4096, 1)
	code := testCode(t, text)
	rom, err := BuildROM(text, Options{Codes: []*huffman.Code{code}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rom.Lines) != 4096/32 {
		t.Fatalf("lines = %d", len(rom.Lines))
	}
	if err := rom.Verify(); err != nil {
		t.Fatal(err)
	}
	if rom.Ratio() >= 1.0 {
		t.Errorf("risc-like text did not compress: ratio = %.3f", rom.Ratio())
	}
	if rom.CompressedSize() != rom.BlocksSize()+rom.TableSize() {
		t.Error("size accounting inconsistent")
	}
	// LAT overhead is 3.125% of original.
	if got := float64(rom.TableSize()) / float64(rom.OriginalSize); got != 0.03125 {
		t.Errorf("LAT overhead = %v", got)
	}
}

func TestPaddingShortText(t *testing.T) {
	text := riscLikeText(100, 2) // not a multiple of 32
	rom, err := BuildROM(text, Options{Codes: []*huffman.Code{testCode(t, text)}})
	if err != nil {
		t.Fatal(err)
	}
	if rom.OriginalSize != 128 || len(rom.Lines) != 4 {
		t.Fatalf("padded to %d bytes, %d lines", rom.OriginalSize, len(rom.Lines))
	}
	if err := rom.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRawFallback(t *testing.T) {
	// A code trained on a completely different distribution makes the
	// data incompressible, forcing the bypass path.
	skew := bytes.Repeat([]byte{0}, 4096)
	code := testCode(t, skew) // ~1 bit for 0x00, long codes for the rest
	hostile := make([]byte, 1024)
	rng := rand.New(rand.NewSource(3))
	for i := range hostile {
		hostile[i] = byte(1 + rng.Intn(255))
	}
	rom, err := BuildROM(hostile, Options{Codes: []*huffman.Code{code}})
	if err != nil {
		t.Fatal(err)
	}
	if rom.RawLines() != len(rom.Lines) {
		t.Errorf("raw lines = %d of %d", rom.RawLines(), len(rom.Lines))
	}
	// No encoded block may ever exceed its original size (§2.2).
	for i := range rom.Lines {
		if n := len(rom.Stored(i)); n > LineSize {
			t.Errorf("line %d stored %d bytes", i, n)
		}
	}
	if err := rom.Verify(); err != nil {
		t.Fatal(err)
	}
	if rom.Ratio() > 1.0+0.04 { // raw blocks + 3.125% LAT
		t.Errorf("worst-case ratio = %.4f", rom.Ratio())
	}
}

func TestWordAlignment(t *testing.T) {
	text := riscLikeText(2048, 4)
	code := testCode(t, text)
	byteROM, err := BuildROM(text, Options{Codes: []*huffman.Code{code}})
	if err != nil {
		t.Fatal(err)
	}
	wordROM, err := BuildROM(text, Options{Codes: []*huffman.Code{code}, WordAligned: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range wordROM.Lines {
		if n := len(wordROM.Stored(i)); n%4 != 0 {
			t.Errorf("word-aligned line %d has %d bytes", i, n)
		}
	}
	if wordROM.BlocksSize() < byteROM.BlocksSize() {
		t.Error("word alignment cannot shrink the image")
	}
	if err := wordROM.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiCodeSelection(t *testing.T) {
	// Two halves with very different statistics; two specialized codes.
	a := riscLikeText(1024, 5)
	b := bytes.Repeat([]byte{0xAA, 0xBB, 0xCC, 0xDD}, 256)
	text := append(append([]byte{}, a...), b...)
	codeA := testCode(t, a)
	codeB := testCode(t, b)
	single, err := BuildROM(text, Options{Codes: []*huffman.Code{codeA}})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := BuildROM(text, Options{Codes: []*huffman.Code{codeA, codeB}})
	if err != nil {
		t.Fatal(err)
	}
	if multi.TagBits() != len(multi.Lines) {
		t.Errorf("tag bits = %d, want 1 per line", multi.TagBits())
	}
	if single.TagBits() != 0 {
		t.Error("single-code image has tag overhead")
	}
	if multi.BlocksSize() >= single.BlocksSize() {
		t.Errorf("multi-code blocks %d not smaller than single %d",
			multi.BlocksSize(), single.BlocksSize())
	}
	if err := multi.Verify(); err != nil {
		t.Fatal(err)
	}
	usedB := false
	for _, l := range multi.Lines {
		if l.CodeIdx == 1 {
			usedB = true
		}
	}
	if !usedB {
		t.Error("second code never selected")
	}
}

func TestBuildROMErrors(t *testing.T) {
	if _, err := BuildROM([]byte{1, 2, 3}, Options{}); !errors.Is(err, ErrNoCodes) {
		t.Errorf("err = %v", err)
	}
	text := riscLikeText(64, 6)
	rom, err := BuildROM(text, Options{Codes: []*huffman.Code{testCode(t, text)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rom.LineIndex(uint32(rom.OriginalSize)); err == nil {
		t.Error("LineIndex past end accepted")
	}
	if _, err := rom.DecompressLine(-1); err == nil {
		t.Error("DecompressLine(-1) accepted")
	}
	if _, err := rom.DecompressLine(len(rom.Lines)); err == nil {
		t.Error("DecompressLine past end accepted")
	}
}

// Property: BuildROM + DecompressLine is the identity for arbitrary text
// under a smoothed code.
func TestROMRoundTripQuick(t *testing.T) {
	code := testCode(t, riscLikeText(8192, 7))
	f := func(text []byte) bool {
		if len(text) == 0 {
			return true
		}
		rom, err := BuildROM(text, Options{Codes: []*huffman.Code{code}})
		if err != nil {
			return false
		}
		return rom.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- refill engine ---

func TestRawRefillMatchesStandard(t *testing.T) {
	for _, m := range memory.Models() {
		e := RefillEngine{Mem: m}
		if got, want := e.RawLineCycles(32), m.BurstCycles(8); got != want {
			t.Errorf("%s raw refill = %d, want %d", m.Name(), got, want)
		}
	}
}

func TestCompressedRefillMinimum(t *testing.T) {
	// With bits arriving faster than the decoder drains them, the refill
	// takes exactly 16 cycles + first-word access time (§3.4).
	bitLens := make([]uint8, 32)
	for i := range bitLens {
		bitLens[i] = 4 // 128 bits = 16 stored bytes
	}
	e := RefillEngine{Mem: memory.BurstEPROM{}}
	if got := e.CompressedLineCycles(bitLens, 16); got != 16+3 {
		t.Errorf("burst EPROM compressed refill = %d, want 19", got)
	}
	d := RefillEngine{Mem: memory.SCDRAM{}}
	if got := d.CompressedLineCycles(bitLens, 16); got != 16+4 {
		t.Errorf("DRAM compressed refill = %d, want 20", got)
	}
}

func TestCompressedRefillBeatsStandardOnEPROM(t *testing.T) {
	// On slow EPROM, fetching fewer bytes dominates: a 16-byte block
	// refills faster than the 24-cycle standard refill.
	bitLens := make([]uint8, 32)
	for i := range bitLens {
		bitLens[i] = 4
	}
	e := RefillEngine{Mem: memory.EPROM{}}
	comp := e.CompressedLineCycles(bitLens, 16)
	if std := e.RawLineCycles(32); comp >= std {
		t.Errorf("EPROM compressed refill %d not faster than standard %d", comp, std)
	}
}

func TestCompressedRefillStallsOnSlowMemory(t *testing.T) {
	// A barely-compressed block on EPROM is fetch-bound, slower than the
	// decode minimum.
	bitLens := make([]uint8, 32)
	for i := range bitLens {
		bitLens[i] = 7 // 224 bits = 28 bytes, 7 words
	}
	e := RefillEngine{Mem: memory.EPROM{}}
	got := e.CompressedLineCycles(bitLens, 28)
	if got <= 16+3 {
		t.Errorf("fetch-bound refill = %d, expected > 19", got)
	}
	if last := (memory.EPROM{}).WordArrival(6); got < last {
		t.Errorf("refill %d finished before last word at %d", got, last)
	}
}

func TestRefillMonotoneInSize(t *testing.T) {
	e := RefillEngine{Mem: memory.EPROM{}}
	prev := uint64(0)
	for bytes := 4; bytes <= 28; bytes += 4 {
		bitLens := make([]uint8, 32)
		for i := range bitLens {
			bitLens[i] = uint8(bytes * 8 / 32)
		}
		got := e.CompressedLineCycles(bitLens, bytes)
		if got < prev {
			t.Errorf("refill(%dB) = %d < refill(%dB) = %d", bytes, got, bytes-4, prev)
		}
		prev = got
	}
}

func TestLATFetchCycles(t *testing.T) {
	cases := []struct {
		mem  memory.Model
		want uint64
	}{
		{memory.EPROM{}, 6 + 1},
		{memory.BurstEPROM{}, 4 + 1},
		{memory.SCDRAM{}, 5 + 1},
	}
	for _, c := range cases {
		if got := (RefillEngine{Mem: c.mem}).LATFetchCycles(); got != c.want {
			t.Errorf("%s LAT fetch = %d, want %d", c.mem.Name(), got, c.want)
		}
	}
}

// --- system comparison ---

// syntheticTrace walks the first n bytes of text in a loop, marking every
// fourth instruction as a load.
func syntheticTrace(textBytes, loopBytes, iterations int) *trace.Trace {
	var rec trace.Recorder
	if loopBytes > textBytes {
		loopBytes = textBytes
	}
	for it := 0; it < iterations; it++ {
		for pc := 0; pc < loopBytes; pc += 4 {
			rec.Add(uint32(pc), pc/4%4 == 3, false)
		}
	}
	return rec.Trace(0)
}

func compareWith(t *testing.T, cfg Config, loopBytes int) *Comparison {
	t.Helper()
	text := riscLikeText(8192, 42)
	rom, err := BuildROM(text, Options{Codes: []*huffman.Code{testCode(t, text)}})
	if err != nil {
		t.Fatal(err)
	}
	tr := syntheticTrace(len(text), loopBytes, 50)
	cmp, err := Compare(tr, rom, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cmp
}

func TestCompareBasicInvariants(t *testing.T) {
	cmp := compareWith(t, Config{CacheBytes: 1024, Mem: memory.BurstEPROM{}}, 4096)
	if cmp.Standard.Misses == 0 {
		t.Fatal("no misses; test premise broken")
	}
	if cmp.Standard.Misses != cmp.CCRP.Misses {
		t.Error("miss counts differ between systems")
	}
	if cmp.TrafficRatio() >= 1.0 {
		t.Errorf("traffic ratio = %.3f, want < 1 (paper §4.3: reduced in all cases)", cmp.TrafficRatio())
	}
	if cmp.CCRP.CLBMisses == 0 || cmp.CCRP.CLBMisses > cmp.CCRP.Misses {
		t.Errorf("CLB misses = %d of %d cache misses", cmp.CCRP.CLBMisses, cmp.CCRP.Misses)
	}
	if cmp.MissRate() <= 0 || cmp.MissRate() > 1 {
		t.Errorf("miss rate = %v", cmp.MissRate())
	}
	if cmp.Standard.Cycles <= cmp.Standard.BaseCycles {
		t.Error("standard cycles missing refill costs")
	}
}

func TestEPROMFavorsCompression(t *testing.T) {
	eprom := compareWith(t, Config{CacheBytes: 256, Mem: memory.EPROM{}}, 4096)
	burst := compareWith(t, Config{CacheBytes: 256, Mem: memory.BurstEPROM{}}, 4096)
	if eprom.RelativePerformance() >= burst.RelativePerformance() {
		t.Errorf("EPROM relperf %.3f should beat burst %.3f",
			eprom.RelativePerformance(), burst.RelativePerformance())
	}
	if eprom.RelativePerformance() >= 1.0 {
		t.Errorf("EPROM relperf = %.3f, expected < 1 (compression wins on slow memory)",
			eprom.RelativePerformance())
	}
	if burst.RelativePerformance() <= 1.0 {
		t.Errorf("burst relperf = %.3f, expected > 1 (decode-bound)", burst.RelativePerformance())
	}
}

func TestLargerCacheReducesImpact(t *testing.T) {
	small := compareWith(t, Config{CacheBytes: 256, Mem: memory.BurstEPROM{}}, 2048)
	large := compareWith(t, Config{CacheBytes: 4096, Mem: memory.BurstEPROM{}}, 2048)
	if large.MissRate() >= small.MissRate() {
		t.Errorf("miss rate did not fall with cache size: %.4f vs %.4f",
			large.MissRate(), small.MissRate())
	}
	// With a fitting cache the two systems converge.
	devSmall := small.RelativePerformance() - 1
	devLarge := large.RelativePerformance() - 1
	abs := func(f float64) float64 {
		if f < 0 {
			return -f
		}
		return f
	}
	if abs(devLarge) > abs(devSmall) {
		t.Errorf("relperf deviation grew with cache size: %.4f vs %.4f", devLarge, devSmall)
	}
}

func TestDCacheMissRateScalesImpact(t *testing.T) {
	// More data cycles dilute the instruction-side difference (§4.2.4).
	noD := compareWith(t, Config{CacheBytes: 1024, Mem: memory.EPROM{}, DataCache: true, DCacheMissRate: 0.001}, 4096)
	fullD := compareWith(t, Config{CacheBytes: 1024, Mem: memory.EPROM{}, DataCache: true, DCacheMissRate: 1.0}, 4096)
	devNoD := 1 - noD.RelativePerformance()
	devFull := 1 - fullD.RelativePerformance()
	if devNoD <= devFull {
		t.Errorf("without d-cache misses the CCRP effect should be larger: %.4f vs %.4f",
			devNoD, devFull)
	}
}

func TestCLBSizeEffect(t *testing.T) {
	big := compareWith(t, Config{CacheBytes: 256, Mem: memory.EPROM{}, CLBEntries: 16}, 8192)
	small := compareWith(t, Config{CacheBytes: 256, Mem: memory.EPROM{}, CLBEntries: 1}, 8192)
	if small.CCRP.CLBMisses < big.CCRP.CLBMisses {
		t.Errorf("smaller CLB misses less: %d vs %d", small.CCRP.CLBMisses, big.CCRP.CLBMisses)
	}
	if small.CCRP.Cycles < big.CCRP.Cycles {
		t.Error("smaller CLB produced faster system")
	}
}

func TestOverlapReducesCycles(t *testing.T) {
	block := compareWith(t, Config{CacheBytes: 256, Mem: memory.BurstEPROM{}}, 4096)
	overlap := compareWith(t, Config{CacheBytes: 256, Mem: memory.BurstEPROM{}, OverlapCycles: 4}, 4096)
	if overlap.CCRP.Cycles >= block.CCRP.Cycles {
		t.Error("overlap did not reduce CCRP cycles")
	}
	if overlap.Standard.Cycles >= block.Standard.Cycles {
		t.Error("overlap did not reduce standard cycles")
	}
}

func TestCompareErrors(t *testing.T) {
	text := riscLikeText(256, 9)
	rom, err := BuildROM(text, Options{Codes: []*huffman.Code{testCode(t, text)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compare(&trace.Trace{}, rom, Config{}); !errors.Is(err, ErrEmptyTrace) {
		t.Errorf("empty trace err = %v", err)
	}
	var rec trace.Recorder
	rec.Add(0x10000, false, false)
	tr := rec.Trace(0)
	if _, err := Compare(tr, rom, Config{}); err == nil {
		t.Error("out-of-text fetch accepted")
	}
	if _, err := Compare(tr, rom, Config{CacheBytes: 300}); err == nil {
		t.Error("bad cache geometry accepted")
	}
	if _, err := Compare(tr, rom, Config{CLBEntries: -1}); err == nil {
		t.Error("negative CLB size accepted")
	}
}

// TestBadMissRateRejected: a data-cache miss rate outside [0, 1], NaN
// included, is ErrMissRate from Price and from Compare, never cycles from
// a wrapped product; without DataCache the rate is not read.
func TestBadMissRateRejected(t *testing.T) {
	text := riscLikeText(8192, 42)
	rom, err := BuildROM(text, Options{Codes: []*huffman.Code{testCode(t, text)}})
	if err != nil {
		t.Fatal(err)
	}
	tr := syntheticTrace(len(text), 4096, 5)
	p, err := Replay(tr, rom, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p.DataAccesses == 0 {
		t.Fatal("no data accesses; test premise broken")
	}
	for _, rate := range []float64{-0.5, 1.5, math.NaN(), math.Inf(1)} {
		cfg := Config{DataCache: true, DCacheMissRate: rate}
		if cmp, err := Price(p, rom, cfg); !errors.Is(err, ErrMissRate) {
			t.Errorf("Price at miss rate %g = %+v, %v; want ErrMissRate", rate, cmp, err)
		}
		if cmp, err := Compare(tr, rom, cfg); !errors.Is(err, ErrMissRate) {
			t.Errorf("Compare at miss rate %g = %+v, %v; want ErrMissRate", rate, cmp, err)
		}
		cfg.DataCache = false
		if _, err := Price(p, rom, cfg); err != nil {
			t.Errorf("miss rate %g without a data cache: %v", rate, err)
		}
	}
	for _, rate := range []float64{0, 1} {
		if _, err := Price(p, rom, Config{DataCache: true, DCacheMissRate: rate}); err != nil {
			t.Errorf("miss rate %g: %v", rate, err)
		}
	}
}

// TestDecodeRates: a negative decode rate is rejected with ErrDecodeRate
// by Price, by Compare, and by Observe, which prices every line too; such
// rates were once priced at the paper's 2. The valid rates price as they
// did before the check, 0 as the paper's 2.
func TestDecodeRates(t *testing.T) {
	text := riscLikeText(8192, 42)
	rom, err := BuildROM(text, Options{Codes: []*huffman.Code{testCode(t, text)}})
	if err != nil {
		t.Fatal(err)
	}
	tr := syntheticTrace(len(text), 4096, 5)
	p, err := Replay(tr, rom, Config{CacheBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		rate   int
		refill uint64 // CCRP refill cycles, 0 when rejected
	}{
		{-1, 0}, {-8, 0}, {0, 12240}, {1, 22480}, {2, 12240}, {4, 7120}, {8, 5805},
	} {
		cfg := Config{CacheBytes: 256, DecodeRate: c.rate}
		cmp, err := Price(p, rom, cfg)
		if c.refill == 0 {
			if !errors.Is(err, ErrDecodeRate) {
				t.Errorf("Price at rate %d = %+v, %v; want ErrDecodeRate", c.rate, cmp, err)
			}
			if _, err := Compare(tr, rom, cfg); !errors.Is(err, ErrDecodeRate) {
				t.Errorf("Compare at rate %d: %v; want ErrDecodeRate", c.rate, err)
			}
			if err := Observe(metrics.New(), tr, p, rom, cfg); !errors.Is(err, ErrDecodeRate) {
				t.Errorf("Observe at rate %d: %v; want ErrDecodeRate", c.rate, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("rate %d: %v", c.rate, err)
			continue
		}
		if cmp.CCRP.RefillCycles != c.refill {
			t.Errorf("rate %d: %d refill cycles, want %d", c.rate, cmp.CCRP.RefillCycles, c.refill)
		}
	}
}

// TestCompareAllocsIndependentOfMisses: Replay counts misses per line and
// Price prices each line once after the loop, so Compare allocates as
// often at a 256 B cache as at a 4 KB one although it misses far more,
// and pricing a Huffman line allocates nothing.
func TestCompareAllocsIndependentOfMisses(t *testing.T) {
	text := riscLikeText(8192, 42)
	rom, err := BuildROM(text, Options{Codes: []*huffman.Code{testCode(t, text)}})
	if err != nil {
		t.Fatal(err)
	}
	tr := syntheticTrace(len(text), 4096, 5)
	allocs := func(cacheBytes int) (float64, uint64) {
		cfg := Config{CacheBytes: cacheBytes, Mem: memory.BurstEPROM{}}
		var misses uint64
		n := testing.AllocsPerRun(5, func() {
			cmp, err := Compare(tr, rom, cfg)
			if err != nil {
				t.Fatal(err)
			}
			misses = cmp.CCRP.Misses
		})
		return n, misses
	}
	small, smallMisses := allocs(256)
	large, largeMisses := allocs(4096)
	if smallMisses <= largeMisses {
		t.Fatalf("misses: %d at 256 B, %d at 4 KB; test premise broken", smallMisses, largeMisses)
	}
	if small != large {
		t.Errorf("Compare allocates %v times at 256 B (%d misses) but %v at 4 KB (%d misses), want equal",
			small, smallMisses, large, largeMisses)
	}

	li := -1
	for i := range rom.Lines {
		if !rom.Raw(i) {
			li = i
			break
		}
	}
	if li < 0 {
		t.Fatal("no compressed line; test premise broken")
	}
	e := RefillEngine{Mem: memory.BurstEPROM{}}
	if n := testing.AllocsPerRun(100, func() { e.LineCycles(rom, li) }); n != 0 {
		t.Errorf("LineCycles on a Huffman line allocates %v times, want 0", n)
	}
}

// TestPriceRejectsMismatchedProfile: a profile priced against the ROM of
// a program with more lines or fewer than the one it was replayed over is
// ErrProfileMismatch, never an index panic or a silent misprice.
func TestPriceRejectsMismatchedProfile(t *testing.T) {
	text := riscLikeText(8192, 42)
	code := testCode(t, text)
	rom, err := BuildROM(text, Options{Codes: []*huffman.Code{code}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Replay(syntheticTrace(len(text), 4096, 5), rom, Config{CacheBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mem: memory.EPROM{}}
	if _, err := Price(p, rom, cfg); err != nil {
		t.Fatalf("Price over its own ROM: %v", err)
	}
	for _, n := range []int{len(text) / 2, 2 * len(text)} {
		other, err := BuildROM(riscLikeText(n, 43), Options{Codes: []*huffman.Code{code}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Price(p, other, cfg); !errors.Is(err, ErrProfileMismatch) {
			t.Errorf("profile of %d lines priced against %d: err = %v, want ErrProfileMismatch",
				len(p.LineMisses), len(other.Lines), err)
		}
	}
}

// TestReplayRejectsFetchOutsideText: a fetch past the program text is an
// error naming the address, not a miss charged to some line.
func TestReplayRejectsFetchOutsideText(t *testing.T) {
	text := riscLikeText(256, 9)
	rom, err := BuildROM(text, Options{Codes: []*huffman.Code{testCode(t, text)}})
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Recorder
	rec.Add(0, false, false)
	rec.Add(0x10000, false, false)
	_, err = Replay(rec.Trace(0), rom, Config{})
	if err == nil || !strings.Contains(err.Error(), "trace fetch 0x10000 outside program text") {
		t.Errorf("Replay = %v, want the outside-text error for 0x10000", err)
	}
}

// TestProfileIndependentOfCoder: a profile replayed over one ROM of a text
// prices any other ROM of that text exactly as Compare over that ROM
// does, which is what lets one profile serve every coder.
func TestProfileIndependentOfCoder(t *testing.T) {
	text := riscLikeText(8192, 42)
	huff, err := BuildROM(text, Options{Codes: []*huffman.Code{testCode(t, text)}})
	if err != nil {
		t.Fatal(err)
	}
	codec, err := BuildROM(text, Options{Codec: testCodec{}, WordAligned: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := syntheticTrace(len(text), 4096, 5)
	cfg := Config{CacheBytes: 512, CacheWays: 2, CLBEntries: 4, Mem: memory.EPROM{}}
	p, err := Replay(tr, huff, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Price(p, codec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Compare(tr, codec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Standard != want.Standard || got.CCRP != want.CCRP {
		t.Errorf("codec ROM priced from the Huffman ROM's profile: %+v, Compare: %+v", got.CCRP, want.CCRP)
	}
}

func BenchmarkBuildROM(b *testing.B) {
	text := riscLikeText(65536, 10)
	code := testCode(b, text)
	opts := Options{Codes: []*huffman.Code{code}}
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildROM(text, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompare(b *testing.B) {
	text := riscLikeText(8192, 11)
	code := testCode(b, text)
	rom, err := BuildROM(text, Options{Codes: []*huffman.Code{code}})
	if err != nil {
		b.Fatal(err)
	}
	tr := syntheticTrace(len(text), 4096, 20)
	cfg := Config{CacheBytes: 1024, Mem: memory.BurstEPROM{}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compare(tr, rom, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDecodeRateEffect(t *testing.T) {
	bitLens := make([]uint8, 32)
	for i := range bitLens {
		bitLens[i] = 6 // 192 bits = 24 stored bytes
	}
	// On burst memory a faster decoder shortens the decode-bound refill.
	var prev uint64
	for i, rate := range []int{1, 2, 4, 8} {
		e := RefillEngine{Mem: memory.BurstEPROM{}, Rate: rate}
		got := e.CompressedLineCycles(bitLens, 24)
		if i > 0 && got > prev {
			t.Errorf("rate %d refill %d exceeds slower rate's %d", rate, got, prev)
		}
		prev = got
	}
	// Rate 2 default must equal the explicit value.
	d := RefillEngine{Mem: memory.BurstEPROM{}}
	e := RefillEngine{Mem: memory.BurstEPROM{}, Rate: 2}
	if d.CompressedLineCycles(bitLens, 24) != e.CompressedLineCycles(bitLens, 24) {
		t.Error("default rate differs from explicit 2")
	}
	// A rate-1 decoder needs at least 32 cycles for 32 bytes.
	one := RefillEngine{Mem: memory.BurstEPROM{}, Rate: 1}
	if got := one.CompressedLineCycles(bitLens, 24); got < 32 {
		t.Errorf("rate-1 refill = %d, want >= 32", got)
	}
}

func TestAssociativityHelpsConflictHeavyTrace(t *testing.T) {
	text := riscLikeText(8192, 77)
	code := testCode(t, text)
	// Ping-pong between two conflicting regions.
	var rec trace.Recorder
	for i := 0; i < 2000; i++ {
		rec.Add(uint32(i%8)*4, false, false)
		rec.Add(4096+uint32(i%8)*4, false, false)
	}
	tr := rec.Trace(0)
	rom, err := BuildROM(text, Options{Codes: []*huffman.Code{code}})
	if err != nil {
		t.Fatal(err)
	}
	dm, err := Compare(tr, rom, Config{CacheBytes: 1024, Mem: memory.EPROM{}})
	if err != nil {
		t.Fatal(err)
	}
	tw, err := Compare(tr, rom, Config{CacheBytes: 1024, CacheWays: 2, Mem: memory.EPROM{}})
	if err != nil {
		t.Fatal(err)
	}
	if tw.Standard.Misses >= dm.Standard.Misses {
		t.Errorf("2-way misses %d not below direct-mapped %d", tw.Standard.Misses, dm.Standard.Misses)
	}
}

// A minimal codec that doubles as a test of the LineCodec plug point: a
// one-byte count followed by the line with its trailing zeros dropped.
type testCodec struct{}

func (testCodec) Name() string { return "test" }
func (testCodec) AppendLine(dst, line []byte) ([]byte, error) {
	n := len(line)
	for n > 0 && line[n-1] == 0 {
		n--
	}
	return append(append(dst, byte(n)), line[:n]...), nil
}
func (testCodec) DecodeLineInto(dst, comp []byte) error {
	if len(comp) == 0 {
		return errors.New("empty")
	}
	k := int(comp[0])
	if k+1 > len(comp) || k > len(dst) {
		return errors.New("corrupt")
	}
	n := copy(dst, comp[1:1+k])
	clear(dst[n:])
	return nil
}
func (testCodec) BitLengths(line []byte) (lens [LineSize]uint8, err error) {
	n := len(line)
	for n > 0 && line[n-1] == 0 {
		n--
	}
	for i := 0; i < n; i++ {
		lens[i] = 8
	}
	if n < len(line) {
		lens[n] = 8 // the header byte, charged to the first zero
	} else if n > 0 {
		lens[0] += 8
	}
	return lens, nil
}

// errBitLengths is brokenBitsCodec's failure.
var errBitLengths = errors.New("no per-byte bit attribution")

// brokenBitsCodec compresses like testCodec but cannot attribute bits
// to output bytes, so the refill model cannot price its lines.
type brokenBitsCodec struct{ testCodec }

func (brokenBitsCodec) BitLengths([]byte) ([LineSize]uint8, error) {
	return [LineSize]uint8{}, errBitLengths
}

// TestBuildROMRejectsCodecWithoutBitLengths: a codec whose BitLengths
// fails is a build error naming the line, not a ROM whose refills of
// that line cost zero cycles.
func TestBuildROMRejectsCodecWithoutBitLengths(t *testing.T) {
	text := make([]byte, 2*LineSize)
	text[LineSize] = 1 // line 0 and line 1 both compress under testCodec
	_, err := BuildROM(text, Options{Codec: brokenBitsCodec{}})
	if !errors.Is(err, errBitLengths) {
		t.Fatalf("BuildROM = %v, want the BitLengths error", err)
	}
	if !strings.Contains(err.Error(), "line at 0x0") {
		t.Errorf("BuildROM error %q does not name the line address", err)
	}
}

// shortBitsCodec encodes like testCodec but its BitLengths declare one
// byte less than the encoding takes.
type shortBitsCodec struct{ testCodec }

func (c shortBitsCodec) BitLengths(line []byte) ([LineSize]uint8, error) {
	lens, err := c.testCodec.BitLengths(line)
	for i := range lens {
		if lens[i] >= 8 {
			lens[i] -= 8
			break
		}
	}
	return lens, err
}

// TestBuildROMRejectsEncodingLongerThanBitLengths: a codec whose encoding
// outgrows the size its BitLengths declare is a build error naming the
// line, not a block cut to the declared size that only Verify catches.
func TestBuildROMRejectsEncodingLongerThanBitLengths(t *testing.T) {
	text := make([]byte, 2*LineSize)
	for i := range LineSize {
		text[i] = byte(i + 1) // line 0 declares 32 bytes and is stored raw
	}
	text[LineSize] = 1 // line 1 encodes to 2 bytes and declares 1
	_, err := BuildROM(text, Options{Codec: shortBitsCodec{}})
	if err == nil {
		t.Fatal("BuildROM accepted an encoding longer than its BitLengths")
	}
	if !strings.Contains(err.Error(), "line at 0x20") || !strings.Contains(err.Error(), "encoded 2 bytes") {
		t.Errorf("BuildROM error %q does not name line 0x20 and its encoded size", err)
	}
}

func TestCodecPlugPoint(t *testing.T) {
	// Lines with zero tails compress under the test codec; others go raw.
	text := make([]byte, 256)
	for i := 0; i < 64; i++ {
		text[i] = byte(i + 1) // line 0-1: dense, but still has... fill all
	}
	for i := 64; i < 96; i++ {
		text[i] = byte(i) // line 2 dense
	}
	// lines 3..7 left zero -> compress very well
	rom, err := BuildROM(text, Options{Codec: testCodec{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rom.Verify(); err != nil {
		t.Fatal(err)
	}
	if rom.Ratio() >= 1 {
		t.Errorf("codec image did not compress: %.3f", rom.Ratio())
	}
	// Codec images must refuse serialization.
	var buf bytes.Buffer
	if err := rom.WriteFile(&buf); err == nil {
		t.Error("codec ROM serialized")
	}
	// And must run through the system simulator.
	var rec trace.Recorder
	for i := 0; i < 1000; i++ {
		rec.Add(uint32(i%64)*4, false, false)
	}
	cmp, err := Compare(rec.Trace(0), rom, Config{CacheBytes: 256, Mem: memory.EPROM{}})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.CCRP.Cycles == 0 {
		t.Error("codec comparison produced no cycles")
	}
}
