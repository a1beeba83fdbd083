package experiments

import (
	"bytes"
	"testing"

	"ccrp/internal/metrics"
	"ccrp/internal/sweep"
	"ccrp/internal/workload"
)

// TestSweepDeterminism is the parallelism contract: the -json document of
// a point sweep is byte-identical at -j 1 and -j 8, because results merge
// by point index and every point is a pure function of its spec. The
// artifact cache is reset before the parallel run so the race detector
// also exercises concurrent cold-cache training (single-flight dedup).
func TestSweepDeterminism(t *testing.T) {
	names := []string{"tables9-10", "tables11-13"}
	prev := currentEngine()
	defer SetEngine(prev)

	render := func(workers int) []byte {
		SetEngine(&sweep.Engine{Workers: workers})
		var b bytes.Buffer
		if err := WriteBenchJSON(&b, names); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return b.Bytes()
	}
	seq := render(1)
	resetArtifacts()
	par := render(8)
	if !bytes.Equal(seq, par) {
		t.Errorf("-j 1 and -j 8 outputs differ (%d vs %d bytes)", len(seq), len(par))
	}
}

// TestPerfPointCycleCounts: every sweep point carries its absolute cycle
// counts — the values the sweep's points_sha256 pins across changes —
// and they are consistent with the reported ratio.
func TestPerfPointCycleCounts(t *testing.T) {
	res, err := Tables11to13()
	if err != nil {
		t.Fatal(err)
	}
	for prog, pts := range res {
		for _, p := range pts {
			if p.CyclesCCRP == 0 || p.CyclesStd == 0 {
				t.Fatalf("%s: zero cycle counts: %+v", prog, p)
			}
			ratio := float64(p.CyclesCCRP) / float64(p.CyclesStd)
			if diff := ratio - p.RelPerf; diff > 1e-12 || diff < -1e-12 {
				t.Errorf("%s: cycles ratio %.6f != relperf %.6f", prog, ratio, p.RelPerf)
			}
		}
	}
}

// sweepAll runs every point sweep of Tables 1-13 and Figure 9 and returns
// their -json document.
func sweepAll(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteBenchJSON(&b, []string{"tables1-8", "tables9-10", "fig9", "tables11-13"}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestSweepKeepsOneProfilePerGeometry: the artifact cache holds what a
// sweep needs and no more. A cold sweep on a parallel engine leaves the
// preselected code, one ROM per program, and one miss profile per
// (program, cache size, CLB size) geometry of its points, 60 in all; a
// second sweep adds nothing.
func TestSweepKeepsOneProfilePerGeometry(t *testing.T) {
	prev := currentEngine()
	defer SetEngine(prev)
	SetEngine(&sweep.Engine{Workers: 4})
	resetArtifacts()
	sweepAll(t)
	n := artifacts().Len()

	profiles := 0
	lookup := func(prog string, cacheBytes, clbEntries int) {
		w, _ := workload.ByName(prog)
		if _, err := missProfile(w, cacheBytes, 1, clbEntries); err != nil {
			t.Fatal(err)
		}
		profiles++
	}
	for _, prog := range PerfPrograms {
		for _, cs := range CacheSizes {
			lookup(prog, cs, 16)
		}
	}
	for _, prog := range []string{"nasa7", "espresso"} {
		for _, cs := range CacheSizes {
			lookup(prog, cs, 4)
			lookup(prog, cs, 8)
		}
	}
	if profiles != 60 {
		t.Fatalf("enumerated %d geometries, want 60", profiles)
	}
	if got := artifacts().Len(); got != n {
		t.Errorf("%d sweep geometries had no cached profile", got-n)
	}
	if want := 1 + len(PerfPrograms) + profiles; n != want {
		t.Errorf("artifact cache holds %d entries after a sweep, want %d: the code, %d ROMs and %d profiles",
			n, want, len(PerfPrograms), profiles)
	}
	sweepAll(t)
	if got := artifacts().Len(); got != n {
		t.Errorf("a second sweep grew the artifact cache from %d to %d entries", n, got)
	}
}

// TestSweepTotalsPinned: a sweep adds its totals to the engine's
// registry, summed over its priced points. The counts are those the
// former per-point replays counted through the cache's and CLB's own
// instruments (15,855,733 i-cache misses, the ccrpbench ladder's
// core.icache_misses, and its 2,493,804 core.clb_misses), and the
// refill total is their line refills plus LAT fetches.
func TestSweepTotalsPinned(t *testing.T) {
	want := []struct {
		name  string
		value uint64
	}{
		{"ccrp_cache_accesses_total", 198711125},
		{"ccrp_cache_hits_total", 182855392},
		{"ccrp_clb_hits_total", 13361929},
		{"ccrp_clb_misses_total", 2493804},
		{"ccrp_refill_cycles_total", 334425159},
	}
	prev := currentEngine()
	defer SetEngine(prev)
	reg := metrics.New()
	SetEngine(&sweep.Engine{Workers: 2, Registry: reg})
	sweepAll(t)
	for _, w := range want {
		if got := reg.Counter(w.name, "").Value(); got != w.value {
			t.Errorf("%s = %d, want %d", w.name, got, w.value)
		}
	}
}
