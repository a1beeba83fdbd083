package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"ccrp/internal/core"
	"ccrp/internal/experiments"
	"ccrp/internal/huffman"
	"ccrp/internal/memory"
	"ccrp/internal/metrics"
	"ccrp/internal/workload"
)

// TestInstrumentedOutputPinned pins every byte an instrumented Compare
// writes: the Prometheus exposition and the unsampled event stream for
// fpppp (the shortest MIPS trace) at ccsim's defaults. A replay loop
// that reorders, drops or renumbers a fetch event, or miscounts an
// access, changes a hash.
func TestInstrumentedOutputPinned(t *testing.T) {
	const (
		wantProm   = "96b1808d6eacd949e48affce6c699f5f4873d142f70b6806e2419c04ca24de62"
		wantEvents = "8859fe40b9b9e6dbe54fcd25067b6a60cffbfd54fd3e9eae653ad8bff0a94000"
	)
	w, _ := workload.ByName("fpppp")
	tr, err := w.Trace()
	if err != nil {
		t.Fatal(err)
	}
	text, err := w.Text()
	if err != nil {
		t.Fatal(err)
	}
	code, err := experiments.PreselectedCode()
	if err != nil {
		t.Fatal(err)
	}
	rom, err := core.BuildROM(text, core.Options{Codes: []*huffman.Code{code}})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	events := sha256.New()
	sink := metrics.NewJSONLSink[metrics.Event](events)
	cfg := core.Config{
		CacheBytes: 1024,
		CLBEntries: 16,
		Mem:        memory.BurstEPROM{},
		Metrics:    reg,
		Events:     sink,
	}
	if _, err := core.Compare(tr, rom, cfg); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	if err := reg.WriteFormat(&prom, "prom"); err != nil {
		t.Fatal(err)
	}
	promSum := sha256.Sum256(prom.Bytes())
	if got := hex.EncodeToString(promSum[:]); got != wantProm {
		t.Errorf("prom exposition sha256 = %s, want %s", got, wantProm)
	}
	if got := hex.EncodeToString(events.Sum(nil)); got != wantEvents {
		t.Errorf("event stream sha256 = %s, want %s", got, wantEvents)
	}
}
