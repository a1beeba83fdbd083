package core

import (
	"bytes"
	"reflect"
	"testing"

	"ccrp/internal/huffman"
	"ccrp/internal/memory"
	"ccrp/internal/metrics"
	"ccrp/internal/trace"
)

// TestTraceSaveLoadCycleIdentical is the ccsim -savetrace/-trace
// contract: a trace serialized to disk and read back must drive Compare
// to the exact same Comparison as the live trace — same cycles, misses,
// and traffic, bit for bit.
func TestTraceSaveLoadCycleIdentical(t *testing.T) {
	text := riscLikeText(8192, 7)
	rom, err := BuildROM(text, Options{Codes: []*huffman.Code{testCode(t, text)}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{CacheBytes: 512, Mem: memory.BurstEPROM{}}
	live := syntheticTrace(len(text), 4096, 50)

	var buf bytes.Buffer
	n, err := live.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	loaded, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Stalls != live.Stalls || len(loaded.Events) != len(live.Events) {
		t.Fatalf("trace shape changed: %d events/%d stalls vs %d/%d",
			len(loaded.Events), loaded.Stalls, len(live.Events), live.Stalls)
	}

	want, err := Compare(live, rom, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Compare(loaded, rom, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Standard, got.Standard) {
		t.Errorf("standard stats diverge:\nlive   %+v\nloaded %+v", want.Standard, got.Standard)
	}
	if !reflect.DeepEqual(want.CCRP, got.CCRP) {
		t.Errorf("CCRP stats diverge:\nlive   %+v\nloaded %+v", want.CCRP, got.CCRP)
	}
}

// TestInstrumentationDoesNotPerturb: observing a run's profile leaves it
// as it was, so pricing it gives Compare's Comparison, and the series
// Observe records agree with that Comparison: the accesses, hits and
// misses, the CLB misses, one refill observation per miss, the refill
// cycles (the histogram's sum plus one LAT fetch per CLB miss), and the
// per-line fetches, which add up to the accesses.
func TestInstrumentationDoesNotPerturb(t *testing.T) {
	text := riscLikeText(8192, 7)
	tr := syntheticTrace(len(text), 4096, 50)
	rom, err := BuildROM(text, Options{Codes: []*huffman.Code{testCode(t, text)}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{CacheBytes: 512, Mem: memory.BurstEPROM{}}
	plain, err := Compare(tr, rom, cfg)
	if err != nil {
		t.Fatal(err)
	}

	p, err := Replay(tr, rom, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	if err := Observe(reg, tr, p, rom, cfg); err != nil {
		t.Fatal(err)
	}
	instr, err := Price(p, rom, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Standard, instr.Standard) || !reflect.DeepEqual(plain.CCRP, instr.CCRP) {
		t.Error("the observed profile priced to different stats than Compare's")
	}

	if got := reg.Counter("ccrp_cache_accesses_total", "").Value(); got != instr.Standard.Accesses {
		t.Errorf("cache accesses counter = %d, want %d", got, instr.Standard.Accesses)
	}
	hits := reg.Counter("ccrp_cache_hits_total", "").Value()
	if got := instr.Standard.Accesses - hits; got != instr.Standard.Misses {
		t.Errorf("accesses-hits = %d, want %d misses", got, instr.Standard.Misses)
	}
	if got := reg.Counter("ccrp_clb_misses_total", "").Value(); got != instr.CCRP.CLBMisses {
		t.Errorf("CLB miss counter = %d, want %d", got, instr.CCRP.CLBMisses)
	}
	refills := reg.Histogram("ccrp_refill_cycles", "", nil)
	if got := refills.Count(); got != instr.CCRP.Misses {
		t.Errorf("refill histogram count = %d, want one observation per miss (%d)",
			got, instr.CCRP.Misses)
	}
	latFetches := reg.Counter("ccrp_lat_fetches_total", "").Value()
	if got := uint64(refills.Sum()) + latFetches*newTariff(cfg.withDefaults()).latFetch; got != instr.CCRP.RefillCycles {
		t.Errorf("refill histogram sum plus LAT fetches = %d cycles, want %d", got, instr.CCRP.RefillCycles)
	}
	lines := reg.CounterVec("ccrp_line_fetches_total", "", "line")
	var fetches uint64
	for li := range rom.Lines {
		fetches += lines.WithInt(li).Value()
	}
	if fetches != instr.Standard.Accesses {
		t.Errorf("per-line fetches add up to %d, want %d accesses", fetches, instr.Standard.Accesses)
	}
}
