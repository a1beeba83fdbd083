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

// countSink counts events without retaining them.
type countSink struct{ n int }

func (s *countSink) Emit(metrics.Event) { s.n++ }
func (s *countSink) Close() error       { return nil }

// TestInstrumentationDoesNotPerturb: attaching the metrics registry and
// an event sink must not change a single cycle of the Comparison, and
// the instruments must agree with the Stats the model already reports.
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

	reg := metrics.New()
	sink := &countSink{}
	cfg.Metrics, cfg.Events = reg, sink
	instr, err := Compare(tr, rom, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Standard, instr.Standard) || !reflect.DeepEqual(plain.CCRP, instr.CCRP) {
		t.Error("instrumented run produced different stats than the plain run")
	}
	if sink.n == 0 {
		t.Error("event sink saw no events")
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
	if got := reg.Histogram("ccrp_refill_cycles", "", nil).Count(); got != instr.CCRP.Misses {
		t.Errorf("refill histogram count = %d, want one observation per miss (%d)",
			got, instr.CCRP.Misses)
	}
}
