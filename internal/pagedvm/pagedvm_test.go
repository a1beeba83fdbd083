package pagedvm

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"ccrp/internal/huffman"
	"ccrp/internal/trace"
)

// riscLike builds a compressible pseudo-program image.
func riscLike(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	for i := range out {
		if rng.Intn(3) == 0 {
			out[i] = 0
		} else {
			out[i] = byte(rng.Intn(48))
		}
	}
	return out
}

func testCode(t testing.TB, data []byte) *huffman.Code {
	t.Helper()
	c, err := huffman.BuildBounded(huffman.HistogramOf(data).Smooth(), 16)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// testStore pages image into a pageBytes store under its own code.
func testStore(t testing.TB, image []byte, pageBytes int) *Store {
	t.Helper()
	s, err := BuildStore(image, testCode(t, image), pageBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	image := riscLike(20000, 1) // not page aligned
	code := testCode(t, image)
	store, err := BuildStore(image, code, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if store.Pages() != 5 {
		t.Fatalf("pages = %d", store.Pages())
	}
	if err := store.Verify(image); err != nil {
		t.Fatal(err)
	}
	if store.Ratio() >= 1 {
		t.Errorf("store did not compress: %.3f", store.Ratio())
	}
	if _, err := store.ReadPage(5); err == nil {
		t.Error("out-of-range page read accepted")
	}
	if _, err := store.StoredBytes(-1); err == nil {
		t.Error("negative page accepted")
	}
}

func TestRawFallbackPages(t *testing.T) {
	// High-entropy image under a mismatched code: pages stay raw and the
	// store never grows.
	image := make([]byte, 8192)
	rng := rand.New(rand.NewSource(2))
	for i := range image {
		image[i] = byte(rng.Intn(256))
	}
	skew := make([]byte, 4096) // all zeros
	code := testCode(t, skew)
	store, err := BuildStore(image, code, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if store.TotalStored() > len(image) {
		t.Errorf("store grew: %d > %d", store.TotalStored(), len(image))
	}
	if err := store.Verify(image); err != nil {
		t.Fatal(err)
	}
}

func TestBadPageSize(t *testing.T) {
	code := testCode(t, []byte{1, 2, 3})
	for _, ps := range []int{0, -4, 100} {
		if _, err := BuildStore([]byte{1}, code, ps); err == nil {
			t.Errorf("page size %d accepted", ps)
		}
	}
}

// walkTrace touches pages in a loop larger than the frame pool.
func walkTrace(pages, touches, pageBytes int) *trace.Trace {
	var rec trace.Recorder
	for i := 0; i < touches; i++ {
		page := i % pages
		rec.Add(uint32(page*pageBytes+(i%32)*4), false, false)
	}
	return rec.Trace(0)
}

func TestSimulateBasics(t *testing.T) {
	store := testStore(t, riscLike(8*4096, 3), 4096)
	tr := walkTrace(8, 4000, 4096)
	res, err := Simulate(tr, store, 4, Disk())
	if err != nil {
		t.Fatal(err)
	}
	if res.Compressed.Faults != res.Standard.Faults {
		t.Error("fault sequences differ between systems")
	}
	if res.Compressed.Faults == 0 {
		t.Fatal("no faults; test premise broken")
	}
	// Transfer volume shrinks with compression...
	if res.Compressed.TransferBytes >= res.Standard.TransferBytes {
		t.Error("compression did not reduce paging traffic")
	}
	// ...and on a transfer-dominated device so does fault time — the §5
	// conjecture holds.
	if res.CycleRatio() >= 1 {
		t.Errorf("disk cycle ratio = %.3f, want < 1", res.CycleRatio())
	}
}

func TestDeviceRegimes(t *testing.T) {
	store := testStore(t, riscLike(8*4096, 4), 4096)
	tr := walkTrace(8, 2000, 4096)
	disk, err := Simulate(tr, store, 4, Disk())
	if err != nil {
		t.Fatal(err)
	}
	flash, err := Simulate(tr, store, 4, Flash())
	if err != nil {
		t.Fatal(err)
	}
	// The transfer-dominated device (flash: low latency, pay per byte)
	// benefits most; the seek-dominated disk's fixed latency washes much
	// of the saving out. Both still win.
	if flash.CycleRatio() > disk.CycleRatio()+1e-9 {
		t.Errorf("flash ratio %.3f worse than disk %.3f", flash.CycleRatio(), disk.CycleRatio())
	}
	if disk.CycleRatio() >= 1 {
		t.Errorf("disk ratio = %.3f, want < 1", disk.CycleRatio())
	}
	// A slow 1 B/cycle decoder erodes the win on the fast device.
	slowDec := Flash()
	slowDec.DecodeRate = 1
	slow, err := Simulate(tr, store, 4, slowDec)
	if err != nil {
		t.Fatal(err)
	}
	if slow.CycleRatio() < flash.CycleRatio() {
		t.Errorf("slower decoder improved ratio: %.3f < %.3f", slow.CycleRatio(), flash.CycleRatio())
	}
}

func TestLRUResidency(t *testing.T) {
	store := testStore(t, riscLike(4*4096, 5), 4096)
	// Two pages, four frames: after the compulsory faults, no more.
	tr := walkTrace(2, 1000, 4096)
	res, err := Simulate(tr, store, 4, Flash())
	if err != nil {
		t.Fatal(err)
	}
	if res.Compressed.Faults != 2 {
		t.Errorf("faults = %d, want 2 compulsory", res.Compressed.Faults)
	}
}

func TestSimulateErrors(t *testing.T) {
	image := riscLike(4096, 6)
	store := testStore(t, image, 4096)
	var rec trace.Recorder
	rec.Add(100000, false, false)
	if _, err := Simulate(rec.Trace(0), store, 2, Flash()); err == nil {
		t.Error("fetch outside image accepted")
	}
	tr2 := walkTrace(1, 10, 4096)
	if _, err := Simulate(tr2, store, 0, Flash()); err == nil {
		t.Error("zero frames accepted")
	}
	// A trace run spans a 32-byte line, so a smaller page cannot say
	// which of its fetches fault.
	if _, err := Simulate(tr2, testStore(t, image, 16), 2, Flash()); err == nil {
		t.Error("16-byte pages accepted")
	}
}

// TestDecodeRates: Simulate rejects a device with a negative decode rate
// with ErrDecodeRate; such rates were once priced at 2 bytes per cycle.
// The valid rates price as they did before the check, 0 as 2.
func TestDecodeRates(t *testing.T) {
	store := testStore(t, riscLike(8*4096, 4), 4096)
	tr := walkTrace(8, 2000, 4096)
	for _, c := range []struct {
		rate   int
		cycles uint64 // compressed fault cycles, 0 when rejected
	}{
		{-1, 0}, {-8, 0}, {0, 5719250}, {1, 9192000}, {2, 5719250}, {4, 5719250}, {8, 5719250},
	} {
		dev := Flash()
		dev.DecodeRate = c.rate
		res, err := Simulate(tr, store, 4, dev)
		switch {
		case c.cycles == 0:
			if !errors.Is(err, ErrDecodeRate) {
				t.Errorf("rate %d: %+v, %v; want ErrDecodeRate", c.rate, res, err)
			}
		case err != nil:
			t.Errorf("rate %d: %v", c.rate, err)
		case res.Compressed.FaultCycles != c.cycles:
			t.Errorf("rate %d: %d fault cycles, want %d", c.rate, res.Compressed.FaultCycles, c.cycles)
		}
	}
}

// Property: Verify succeeds for any image and page size in range.
func TestStoreRoundTripQuick(t *testing.T) {
	base := riscLike(4096, 7)
	code := testCode(t, base)
	f := func(data []byte, big bool) bool {
		if len(data) == 0 {
			return true
		}
		ps := 512
		if big {
			ps = 2048
		}
		store, err := BuildStore(data, code, ps)
		if err != nil {
			return false
		}
		return store.Verify(data) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSimulate(b *testing.B) {
	store := testStore(b, riscLike(16*4096, 8), 4096)
	tr := walkTrace(16, 10000, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(tr, store, 8, Disk()); err != nil {
			b.Fatal(err)
		}
	}
}
