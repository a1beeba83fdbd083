package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccrp/internal/cliutil"
	"ccrp/internal/sweep"
	"ccrp/internal/tracing"
)

// TestUnknownExperiment: a bad -exp name is a usage error (exit 2) found
// before any experiment runs or any output file is created, wherever it
// sits in the list and whatever the output mode.
func TestUnknownExperiment(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.json")
	spans := filepath.Join(dir, "sp.jsonl")
	for _, args := range [][]string{
		{"-exp", "fig5,nope"},
		{"-json", "-", "-exp", "nope"},
		{"-json", out, "-spans", spans, "-exp", "fig5,nope"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: wrote to stdout:\n%s", args, stdout.String())
		}
		if !strings.Contains(stderr.String(), `unknown experiment "nope"`) {
			t.Errorf("%q: stderr = %q, want it to name the experiment", args, stderr.String())
		}
	}
	for _, f := range []string{out, spans} {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("%s exists after a usage error (stat: %v)", filepath.Base(f), err)
		}
	}
}

// TestMetricsIndependentOfWorkers: sweep results merge by point index
// and -metrics sums the sweeps' totals in point order, so the four
// sweeps' full-precision -json document and their exposition are
// byte-identical at -j 1 and -j 2.
func TestMetricsIndependentOfWorkers(t *testing.T) {
	bench := func(workers string) string {
		var stdout, stderr bytes.Buffer
		args := []string{"-exp", "tables1-8,tables9-10,fig9,tables11-13", "-json", "-", "-metrics", "prom", "-j", workers}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("-j %s: exit %d, stderr %q", workers, code, stderr.String())
		}
		return stdout.String()
	}
	seq, par := bench("1"), bench("2")
	if seq != par {
		t.Errorf("-j 1 and -j 2 outputs differ (%d vs %d bytes)", len(seq), len(par))
	}
	for _, series := range []string{
		"ccrp_cache_accesses_total 198711125\n",
		"ccrp_cache_hits_total 182855392\n",
		"ccrp_clb_hits_total 13361929\n",
		"ccrp_clb_misses_total 2493804\n",
		"ccrp_refill_cycles_total 334425159\n",
	} {
		if !strings.Contains(seq, series) {
			t.Errorf("exposition lacks %q", series)
		}
	}
}

// TestEventFlagsRejected: no command has -events or -sample, the flags
// of a per-fetch event stream; ccrp-bench rejects both as usage errors.
func TestEventFlagsRejected(t *testing.T) {
	events := filepath.Join(t.TempDir(), "ev.jsonl")
	for _, args := range [][]string{
		{"-events", events, "-exp", "fig5"},
		{"-sample", "1", "-exp", "fig5"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: wrote to stdout:\n%s", args, stdout.String())
		}
	}
	if _, err := os.Stat(events); !os.IsNotExist(err) {
		t.Errorf("event file exists after a usage error (stat: %v)", err)
	}
}

// sweepPoints counts the sweep_point records in a span stream.
func sweepPoints(t *testing.T, r io.Reader) int {
	t.Helper()
	recs, err := tracing.ReadRecords(r)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, rec := range recs {
		if rec.Stage == sweep.StagePoint {
			n++
		}
	}
	return n
}

// TestSpans: -spans appends one sweep_point record per point of a sweep
// to its file, flushed when the run ends, and "-" streams the same
// records to stderr instead.
func TestSpans(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "sp.jsonl")
	var counts []int
	for range 2 {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-exp", "fig9", "-spans", spans}, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d, stderr %q", code, stderr.String())
		}
		data, err := os.ReadFile(spans)
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, sweepPoints(t, bytes.NewReader(data)))
	}
	if counts[0] == 0 || counts[1] != 2*counts[0] {
		t.Errorf("sweep_point records: %d after one run, %d after two; want n > 0, then 2n", counts[0], counts[1])
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "fig9", "-spans", "-"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-spans -: exit %d, stderr %q", code, stderr.String())
	}
	if n := sweepPoints(t, &stderr); n != counts[0] {
		t.Errorf("-spans - wrote %d sweep_point records to stderr, want %d", n, counts[0])
	}
}

// TestRendersExperiment: a known name renders its table and exits 0.
func TestRendersExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "fig5"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Figure 5") {
		t.Errorf("stdout does not hold the Figure 5 table:\n%s", stdout.String())
	}
}

// TestVersion: -version prints to the given stdout and succeeds.
func TestVersion(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-version"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if want := "ccrp-bench " + cliutil.Version() + "\n"; stdout.String() != want {
		t.Errorf("stdout %q, want %q", stdout.String(), want)
	}
}
