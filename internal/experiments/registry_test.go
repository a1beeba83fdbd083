package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"reflect"
	"testing"

	"ccrp/internal/metrics"
	"ccrp/internal/sweep"
)

// benchJSONSHA256 pins the whole ccrp-bench -json document, every
// datapoint of every experiment, and `go run ./cmd/ccrp-bench -json - |
// sha256sum` prints it. It was BENCH_PR10.json's points_sha256 until the
// document took the decoder's hardware cost into the extensions
// datapoints; no simulated figure moved then. Cycle counts are exact, so
// a change that moves any simulated figure moves this hash; such a
// change updates the constant and states why, as ccrpbench/oracle.json
// requires of its sweep hash.
const benchJSONSHA256 = "716a1874d5a1ddf639daedc69eecd8464b6206396de33966bb56ec5c54aacf04"

// TestBenchJSONRoundTrip is the ccrp-bench -json contract: the document
// of every experiment hashes to the pinned value and parses back through
// encoding/json with its datapoints intact.
func TestBenchJSONRoundTrip(t *testing.T) {
	var b bytes.Buffer
	if err := WriteBenchJSON(&b, nil); err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(b.Bytes()); hex.EncodeToString(sum[:]) != benchJSONSHA256 {
		t.Errorf("-json document sha256 = %x, want %s", sum, benchJSONSHA256)
	}
	var doc struct {
		Schema      int            `json:"schema"`
		Paper       string         `json:"paper"`
		Experiments map[string]any `json:"experiments"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	if doc.Schema != 1 {
		t.Errorf("schema = %d, want 1", doc.Schema)
	}
	for _, name := range Names() {
		if _, ok := doc.Experiments[name]; !ok {
			t.Errorf("document lacks experiment %q", name)
		}
	}
	rows, ok := doc.Experiments["fig5"].([]any)
	if !ok || len(rows) == 0 {
		t.Fatalf("fig5 datapoints = %#v, want a non-empty list", doc.Experiments["fig5"])
	}
	row, ok := rows[0].(map[string]any)
	if !ok {
		t.Fatalf("fig5 row = %#v, want an object", rows[0])
	}
	if _, ok := row["Program"]; !ok {
		t.Errorf("fig5 row missing Program field: %v", row)
	}
}

// TestPrintsFromJSONDatapoints: every experiment prints the same from
// its datapoints after a round trip through JSON as from the datapoints
// themselves, so the -json document carries everything ccrp-bench
// prints.
func TestPrintsFromJSONDatapoints(t *testing.T) {
	for _, e := range table {
		v, err := e.data()
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		back := reflect.New(reflect.TypeOf(v))
		if err := json.Unmarshal(raw, back.Interface()); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		var direct, viaJSON bytes.Buffer
		e.print(&direct, v)
		e.print(&viaJSON, back.Elem().Interface())
		if direct.String() != viaJSON.String() {
			t.Errorf("%s prints from its JSON datapoints:\n%s\nwant:\n%s", e.name, viaJSON.String(), direct.String())
		}
	}
}

func TestBenchDataUnknownExperiment(t *testing.T) {
	if _, err := BenchData([]string{"fig99"}); err == nil {
		t.Error("unknown experiment must error")
	}
	if err := Render(io.Discard, "fig99"); err == nil {
		t.Error("Render printed an unknown experiment")
	}
}

// TestEngineObserver: a registry attached through the sweep engine must
// get the sweeps' totals, the same whatever the worker count, and
// detaching the engine must stop them.
func TestEngineObserver(t *testing.T) {
	reg := metrics.New()
	SetEngine(&sweep.Engine{Workers: 1, Registry: reg})
	defer SetEngine(nil)
	if _, err := Figure9(); err != nil {
		t.Fatal(err)
	}
	accesses := reg.Counter("ccrp_cache_accesses_total", "").Value()
	if accesses == 0 {
		t.Fatal("engine registry saw no cache accesses")
	}

	// The same sweep across 8 workers sums to the same totals.
	par := metrics.New()
	SetEngine(&sweep.Engine{Workers: 8, Registry: par})
	if _, err := Figure9(); err != nil {
		t.Fatal(err)
	}
	if got := par.Counter("ccrp_cache_accesses_total", "").Value(); got != accesses {
		t.Errorf("8 workers counted %d accesses, want %d", got, accesses)
	}

	SetEngine(nil)
	if _, err := Figure9(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("ccrp_cache_accesses_total", "").Value(); got != accesses {
		t.Errorf("detached engine still accumulating: %d -> %d", accesses, got)
	}
}
