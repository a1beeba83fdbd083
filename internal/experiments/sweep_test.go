package experiments

import (
	"bytes"
	"testing"

	"ccrp/internal/sweep"
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
