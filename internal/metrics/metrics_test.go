package metrics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestDisabledInstrumentsAllocFree is the contract the hot paths rely on:
// a nil registry hands out nil instruments whose methods neither allocate
// nor panic. A regression here silently taxes every simulated fetch.
func TestDisabledInstrumentsAllocFree(t *testing.T) {
	var r *Registry // disabled
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", LinearBuckets(1, 1, 4))
	v := r.CounterVec("v", "", "set")
	child := v.With("3")
	if c != nil || g != nil || h != nil || v != nil || child != nil {
		t.Fatal("nil registry must return nil instruments")
	}
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(7)
		g.Set(1.5)
		h.Observe(3)
		child.Inc()
		v.WithInt(9).Inc()
	}); n != 0 {
		t.Errorf("disabled instruments allocated %v times per run, want 0", n)
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments must read as zero")
	}
	if h.Bounds() != nil || h.BucketCounts() != nil {
		t.Error("nil histogram must expose nil buckets")
	}
}

// TestEnabledInstrumentsAllocFree: the live update paths must not
// allocate either — only registration may.
func TestEnabledInstrumentsAllocFree(t *testing.T) {
	r := New()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", ExpBuckets(1, 2, 10))
	child := r.CounterVec("v", "", "set").WithInt(5)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(2.5)
		h.Observe(700) // overflow bucket, worst-case scan
		child.Inc()
	}); n != 0 {
		t.Errorf("enabled instrument updates allocated %v times per run, want 0", n)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := New()
	h := r.Histogram("h", "", []float64{1, 2, 4})
	// Prometheus le semantics: a value equal to an upper bound lands in
	// that bucket, not the next.
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 4.5, 100} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 2, 2} // (..1], (1..2], (2..4], (4..+Inf)
	if got := h.BucketCounts(); !reflect.DeepEqual(got, want) {
		t.Errorf("bucket counts = %v, want %v", got, want)
	}
	if h.Count() != 8 {
		t.Errorf("count = %d, want 8", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+1.5+2+3+4+4.5+100; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %g, want %g", got, want)
	}
}

func TestBucketBuilders(t *testing.T) {
	if got, want := ExpBuckets(1, 4, 4), []float64{1, 4, 16, 64}; !reflect.DeepEqual(got, want) {
		t.Errorf("ExpBuckets = %v, want %v", got, want)
	}
	if got, want := LinearBuckets(4, 4, 4), []float64{4, 8, 12, 16}; !reflect.DeepEqual(got, want) {
		t.Errorf("LinearBuckets = %v, want %v", got, want)
	}
}

// TestRegistryIdempotent: re-registration must return the same instrument
// so repeated core.Compare runs accumulate into one set of counters.
func TestRegistryIdempotent(t *testing.T) {
	r := New()
	a := r.Counter("x", "first help")
	a.Inc()
	b := r.Counter("x", "second help ignored")
	if a != b {
		t.Fatal("same name+kind must return the same counter")
	}
	b.Inc()
	if a.Value() != 2 {
		t.Errorf("accumulated value = %d, want 2", a.Value())
	}
	defer func() {
		if recover() == nil {
			t.Error("cross-kind name reuse must panic")
		}
	}()
	r.Gauge("x", "")
}

func TestCounterVecLabelOrder(t *testing.T) {
	r := New()
	num := r.CounterVec("num", "", "set")
	for _, v := range []int{10, 2, 1} {
		num.WithInt(v).Inc()
	}
	if got, want := num.labels(), []string{"1", "2", "10"}; !reflect.DeepEqual(got, want) {
		t.Errorf("numeric labels = %v, want %v", got, want)
	}
	mixed := r.CounterVec("mixed", "", "class")
	mixed.With("load").Inc()
	mixed.With("alu").Inc()
	mixed.With("2").Inc()
	if got, want := mixed.labels(), []string{"2", "alu", "load"}; !reflect.DeepEqual(got, want) {
		t.Errorf("mixed labels = %v, want %v", got, want)
	}
}

// goldenRegistry builds the deterministic registry behind the export
// golden files.
func goldenRegistry() *Registry {
	r := New()
	c := r.Counter("ccrp_test_fetches_total", "instruction fetches")
	c.Add(357007)
	r.Gauge("ccrp_test_ratio", "a derived ratio").Set(0.84210526)
	h := r.Histogram("ccrp_test_refill_cycles", "refill cycle distribution", LinearBuckets(4, 4, 4))
	for _, v := range []float64{3, 4, 9, 17, 99} {
		h.Observe(v)
	}
	vec := r.CounterVec("ccrp_test_set_misses_total", "misses by set", "set")
	vec.WithInt(0).Add(7)
	vec.WithInt(2).Add(3)
	vec.WithInt(10).Inc()
	return r
}

func TestPrometheusGolden(t *testing.T) {
	var b bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden.prom", b.String())
}

func TestTableGolden(t *testing.T) {
	var b bytes.Buffer
	if err := goldenRegistry().WriteTable(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden.table", b.String())
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s output differs from %s:\ngot:\n%s\nwant:\n%s", name, path, got, want)
	}
}

// TestJSONExportRoundTrip: the JSON export must parse back and carry the
// same numbers, cumulative histogram buckets included.
func TestJSONExportRoundTrip(t *testing.T) {
	var b bytes.Buffer
	if err := goldenRegistry().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []struct {
			Name    string   `json:"name"`
			Type    string   `json:"type"`
			Value   *float64 `json:"value"`
			Count   *uint64  `json:"count"`
			Sum     *float64 `json:"sum"`
			Buckets []struct {
				LE    float64 `json:"le"`
				Count uint64  `json:"count"`
				Inf   bool    `json:"inf"`
			} `json:"buckets"`
			Labels map[string]uint64 `json:"labels"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.Metrics) != 4 {
		t.Fatalf("got %d metrics, want 4", len(doc.Metrics))
	}
	byName := map[string]int{}
	for i, m := range doc.Metrics {
		byName[m.Name] = i
	}
	c := doc.Metrics[byName["ccrp_test_fetches_total"]]
	if c.Value == nil || *c.Value != 357007 {
		t.Errorf("counter value = %v, want 357007", c.Value)
	}
	h := doc.Metrics[byName["ccrp_test_refill_cycles"]]
	if h.Count == nil || *h.Count != 5 {
		t.Errorf("histogram count = %v, want 5", h.Count)
	}
	if n := len(h.Buckets); n != 5 { // 4 bounds + Inf
		t.Fatalf("got %d buckets, want 5", n)
	}
	if last := h.Buckets[4]; !last.Inf || last.Count != 5 {
		t.Errorf("+Inf bucket = %+v, want cumulative 5", last)
	}
	// Cumulative: bounds 4,8,12,16 over observations 3,4,9,17,99 — the
	// 17 and 99 both exceed le=16 and only appear under +Inf.
	for i, want := range []uint64{2, 2, 3, 3} {
		if h.Buckets[i].Count != want {
			t.Errorf("bucket le=%g cumulative = %d, want %d", h.Buckets[i].LE, h.Buckets[i].Count, want)
		}
	}
	v := doc.Metrics[byName["ccrp_test_set_misses_total"]]
	if v.Labels["set=0"] != 7 || v.Labels["set=2"] != 3 || v.Labels["set=10"] != 1 {
		t.Errorf("vec labels = %v", v.Labels)
	}
}

func TestWriteFormat(t *testing.T) {
	r := goldenRegistry()
	for _, f := range Formats() {
		if err := r.WriteFormat(&bytes.Buffer{}, f); err != nil {
			t.Errorf("WriteFormat(%q): %v", f, err)
		}
	}
	if err := r.WriteFormat(&bytes.Buffer{}, "yaml"); err == nil {
		t.Error("unknown format must error")
	}
}

// record is what the sink tests write: a small JSON object per line.
type record struct {
	Seq    uint64 `json:"seq"`
	Name   string `json:"name"`
	Cycles uint64 `json:"cycles,omitempty"`
}

// TestJSONLSink: every emitted value is one JSON line, read back in
// emission order with its fields intact.
func TestJSONLSink(t *testing.T) {
	var b bytes.Buffer
	sink := NewJSONLSink[record](&b)
	for i := 0; i < 12; i++ {
		sink.Emit(record{Seq: uint64(i), Name: "fetch"})
	}
	sink.Emit(record{Seq: 12, Name: "refill", Cycles: 19})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var recs []record
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	if len(recs) != 13 {
		t.Fatalf("got %d records, want 13", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i) {
			t.Errorf("record %d has seq %d", i, r.Seq)
		}
	}
	if last := recs[12]; last != (record{Seq: 12, Name: "refill", Cycles: 19}) {
		t.Errorf("last record round-trip = %+v", last)
	}
}

// TestJSONLSinkConcurrentClose: goroutines may emit at once (spans end
// on whatever goroutine ran their stage), and a second Close neither
// fails nor closes the file again.
func TestJSONLSinkConcurrentClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "records.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := NewJSONLSink[record](f)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sink.Emit(record{Seq: uint64(100*g + i), Name: "fetch"})
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := sink.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, line := range bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n")) {
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		seen[r.Seq] = true
	}
	if len(seen) != 400 {
		t.Errorf("%d distinct records written, want 400", len(seen))
	}
}

func TestPrometheusShape(t *testing.T) {
	var b bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE ccrp_test_fetches_total counter",
		"# TYPE ccrp_test_refill_cycles histogram",
		`ccrp_test_refill_cycles_bucket{le="+Inf"} 5`,
		"ccrp_test_refill_cycles_sum 132",
		"ccrp_test_refill_cycles_count 5",
		`ccrp_test_set_misses_total{set="0"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}
}
