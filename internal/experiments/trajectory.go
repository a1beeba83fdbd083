package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"ccrp/internal/hostinfo"
	"ccrp/internal/sweep"
)

// Trajectory is the benchmark trajectory document (BENCH_*.json): one
// full sweep timed sequentially and in parallel, with the complete
// per-point datapoints (including per-point cycle counts) embedded so
// future PRs can diff both wall-time and every individual result.
type Trajectory struct {
	Schema         int             `json:"schema"`
	Label          string          `json:"label"` // e.g. "PR2"
	GoVersion      string          `json:"go_version"`
	NumCPU         int             `json:"num_cpu"`
	Host           hostinfo.Info   `json:"host"`    // toolchain + CPU metadata for cross-machine diffs
	Workers        int             `json:"workers"` // worker count of the parallel run
	Experiments    []string        `json:"experiments"`
	SeqWallSeconds float64         `json:"seq_wall_seconds"` // -j 1, cold artifact cache
	ParWallSeconds float64         `json:"par_wall_seconds"` // -j workers, cold artifact cache
	Speedup        float64         `json:"speedup"`          // seq / par
	ByteIdentical  bool            `json:"byte_identical"`   // -j 1 vs -j N JSON outputs
	PointsSHA256   string          `json:"points_sha256"`    // content address of Points
	Points         json.RawMessage `json:"points"`           // the parallel run's BenchJSON
}

// BuildTrajectory runs the named experiments (all when names is empty)
// twice — sequentially and at the given worker count, each from a cold
// artifact cache so the runs are comparable — and returns the timed,
// cross-checked document. The engine installed by SetEngine is restored
// afterwards.
func BuildTrajectory(names []string, workers int, label string) (*Trajectory, error) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	prev := currentEngine()
	defer SetEngine(prev)

	run := func(w int) ([]byte, float64, error) {
		resetArtifacts()
		SetEngine(&sweep.Engine{Workers: w})
		var buf bytes.Buffer
		start := time.Now()
		err := WriteBenchJSON(&buf, names)
		return buf.Bytes(), time.Since(start).Seconds(), err
	}
	seqJSON, seqSec, err := run(1)
	if err != nil {
		return nil, fmt.Errorf("experiments: sequential trajectory run: %w", err)
	}
	parJSON, parSec, err := run(workers)
	if err != nil {
		return nil, fmt.Errorf("experiments: parallel trajectory run: %w", err)
	}

	if len(names) == 0 {
		names = Experiments
	}
	t := &Trajectory{
		Schema:         2,
		Label:          label,
		GoVersion:      runtime.Version(),
		NumCPU:         runtime.NumCPU(),
		Host:           hostinfo.Collect(),
		Workers:        workers,
		Experiments:    append([]string(nil), names...),
		SeqWallSeconds: seqSec,
		ParWallSeconds: parSec,
		ByteIdentical:  bytes.Equal(seqJSON, parJSON),
		PointsSHA256:   sweep.HashBytes(parJSON),
		Points:         json.RawMessage(parJSON),
	}
	if parSec > 0 {
		t.Speedup = seqSec / parSec
	}
	if !t.ByteIdentical {
		return t, fmt.Errorf("experiments: -j 1 and -j %d outputs differ — sweep is not deterministic", workers)
	}
	return t, nil
}

// WriteTrajectory writes BuildTrajectory's document as indented JSON.
func WriteTrajectory(w io.Writer, names []string, workers int, label string) error {
	t, err := BuildTrajectory(names, workers, label)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}
