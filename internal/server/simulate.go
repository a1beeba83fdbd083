package server

import (
	"context"
	"net/http"
	"time"

	"ccrp/internal/cliutil"
	"ccrp/internal/core"
	"ccrp/internal/memory"
	"ccrp/internal/sweep"
	"ccrp/internal/tracing"
	"ccrp/internal/workload"
)

// simulateRequest is the POST /v1/simulate body: one core.Config point.
// Zero-valued knobs take the paper's base parameters (1 KB cache,
// 16-entry CLB, Burst EPROM, no data cache). CoderID defaults to the
// preselected code, matching the paper's tables.
type simulateRequest struct {
	Workload       string   `json:"workload"`
	CacheBytes     int      `json:"cache_bytes,omitempty"`
	CacheWays      int      `json:"cache_ways,omitempty"`
	CLBEntries     int      `json:"clb_entries,omitempty"`
	Memory         string   `json:"memory,omitempty"`
	DCacheMissRate *float64 `json:"dcache_miss_rate,omitempty"` // nil = no data cache (rate 1.0); 0 is a real value
	CoderID        string   `json:"coder_id,omitempty"`
	WordAligned    bool     `json:"word_aligned,omitempty"`
	OverlapCycles  uint64   `json:"overlap_cycles,omitempty"`
}

// Geometry bounds of a simulate request; 0 asks for the default. They
// admit every configuration the paper and the extension studies run
// (256 B–4 KB caches, 1–4 ways, 4–16 CLB entries) with wide headroom,
// and keep the cache and CLB one request allocates, and the CLB's
// per-miss scan, small.
const (
	maxSimCacheBytes = 1 << 20
	maxSimCacheWays  = 64
	maxSimCLBEntries = 1024
)

// simulateResponse is one PerfPoint plus cost accounting, the service
// twin of ccsim -json.
type simulateResponse struct {
	Workload            string     `json:"workload"`
	Memory              string     `json:"memory"`
	CacheBytes          int        `json:"cache_bytes"`
	CLBEntries          int        `json:"clb_entries"`
	DCacheMissRate      float64    `json:"dcache_miss_rate"`
	RelativePerformance float64    `json:"relative_performance"`
	MissRate            float64    `json:"miss_rate"`
	TrafficRatio        float64    `json:"traffic_ratio"`
	CLBMissRate         float64    `json:"clb_miss_rate"`
	ROMRatio            float64    `json:"rom_ratio"`
	Standard            core.Stats `json:"standard"`
	CCRP                core.Stats `json:"ccrp"`
	QueueMS             float64    `json:"queue_ms"` // time waiting for a worker slot
	SimMS               float64    `json:"sim_ms"`   // time inside the simulator
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) error {
	var req simulateRequest
	if err := decodeRequest(w, r, &req); err != nil {
		return err
	}
	if req.Workload == "" {
		return errBadRequest("missing workload")
	}
	wl, ok := workload.ByName(req.Workload)
	if !ok {
		return Errf(http.StatusNotFound, CodeNotFound,
			"unknown workload %q (have %v)", req.Workload, workload.Names())
	}
	if req.Memory == "" {
		req.Memory = "Burst EPROM"
	}
	mem, err := memoryModel(req.Memory)
	if err != nil {
		return err
	}
	dmiss := 1.0
	if req.DCacheMissRate != nil {
		dmiss = *req.DCacheMissRate
	}
	if dmiss < 0 || dmiss > 1 {
		return errBadRequest("dcache_miss_rate %g outside [0, 1]", dmiss)
	}
	for _, k := range []struct {
		name   string
		v, max int
	}{
		{"cache_bytes", req.CacheBytes, maxSimCacheBytes},
		{"cache_ways", req.CacheWays, maxSimCacheWays},
		{"clb_entries", req.CLBEntries, maxSimCLBEntries},
	} {
		if k.v < 0 || k.v > k.max {
			return errBadRequest("%s %d outside [0, %d]", k.name, k.v, k.max)
		}
	}
	// Echo the engine's defaults so the response states the actual
	// configuration simulated, not the zero-valued request knobs.
	if req.CacheBytes == 0 {
		req.CacheBytes = 1024
	}
	if req.CLBEntries == 0 {
		req.CLBEntries = 16
	}

	// The coder resolves before queuing so typed errors beat the wait.
	ctx := r.Context()
	rom, err := s.simulateROM(ctx, &req, wl)
	if err != nil {
		return err
	}

	// Bounded worker pool: block for a slot, but never past the route
	// deadline. Saturation past the deadline is a client-visible 429,
	// not a 5xx — the service is healthy, just full.
	qspan := tracing.FromContext(ctx).Child(StageSimQueue)
	queueStart := time.Now()
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		err := Errf(http.StatusTooManyRequests, CodeOverloaded,
			"no simulate worker within the deadline (%d workers busy)", cap(s.sem))
		qspan.SetError(err)
		qspan.End()
		return err
	}
	queued := time.Since(queueStart)
	qspan.End()

	type simOut struct {
		cmp *core.Comparison
		dur time.Duration
		err error
	}
	done := make(chan simOut, 1)
	rspan := tracing.FromContext(ctx).Child(StageSimRun)
	rspan.SetAttr("workload", req.Workload)
	go func() {
		defer func() { <-s.sem }()
		// The span ends before the result is handed over, so it is
		// recorded before the response that reports the run.
		finish := func(out simOut) {
			if out.err != nil {
				rspan.SetError(out.err)
			}
			rspan.End()
			done <- out
		}
		tr, err := wl.Trace()
		if err != nil {
			err = errUnprocessable("workload %q failed to build: %v", req.Workload, err)
			finish(simOut{err: err})
			return
		}
		cfg := core.Config{
			CacheBytes:    req.CacheBytes,
			CacheWays:     req.CacheWays,
			CLBEntries:    req.CLBEntries,
			Mem:           mem,
			OverlapCycles: req.OverlapCycles,
		}
		if dmiss < 1 {
			cfg.DataCache = true
			cfg.DCacheMissRate = dmiss
		}
		start := time.Now()
		cmp, err := core.Compare(tr, rom, cfg)
		if err != nil {
			err = errUnprocessable("simulation failed: %v", err)
			finish(simOut{err: err})
			return
		}
		finish(simOut{cmp: cmp, dur: time.Since(start)})
	}()

	select {
	case out := <-done:
		if out.err != nil {
			return out.err
		}
		s.metricsMu.Lock()
		s.inst.simWait.Observe(queued.Seconds())
		s.metricsMu.Unlock()

		cmp := out.cmp
		resp := simulateResponse{
			Workload:            req.Workload,
			Memory:              mem.Name(),
			CacheBytes:          req.CacheBytes,
			CLBEntries:          req.CLBEntries,
			DCacheMissRate:      dmiss,
			RelativePerformance: cmp.RelativePerformance(),
			MissRate:            cmp.MissRate(),
			TrafficRatio:        cmp.TrafficRatio(),
			ROMRatio:            rom.Ratio(),
			Standard:            cmp.Standard,
			CCRP:                cmp.CCRP,
			QueueMS:             float64(queued.Microseconds()) / 1000,
			SimMS:               float64(out.dur.Microseconds()) / 1000,
		}
		if cmp.CCRP.Misses > 0 {
			resp.CLBMissRate = float64(cmp.CCRP.CLBMisses) / float64(cmp.CCRP.Misses)
		}
		traceJSON(w, r, resp)
		return nil
	case <-ctx.Done():
		// The simulator is not interruptible mid-trace; the goroutine
		// keeps its pool slot until it finishes, which is exactly the
		// resource bound the pool exists to enforce.
		return Errf(http.StatusRequestTimeout, CodeDeadlineExceeded,
			"simulation exceeded the per-request deadline")
	}
}

// simulateROM resolves the coder of a simulate request and builds the
// compressed image the simulation runs through the artifact cache, so
// every point over the same (coder, program, alignment) shares one ROM —
// the same sharing the sweep engine relies on.
func (s *Server) simulateROM(ctx context.Context, req *simulateRequest, wl *workload.Workload) (*core.ROM, error) {
	tsp := tracing.FromContext(ctx).Child(StageText)
	text, err := wl.Text()
	if err != nil {
		err = errUnprocessable("workload %q failed to build: %v", req.Workload, err)
		tsp.SetError(err)
		tsp.End()
		return nil, err
	}
	tsp.SetAttrInt("text_bytes", int64(len(text)))
	tsp.End()
	var entry *coderEntry
	if req.CoderID != "" {
		entry, err = s.resolveCoder(ctx, req.CoderID)
		if err != nil {
			return nil, err
		}
	} else {
		// Default coder: the paper's preselected code, built through the
		// same key (and so the same cache slot and store artifact) as an
		// explicit POST /v1/coders {"kind":"preselected"} train request.
		key := coderKey(KindPreselected, 0, nil)
		id := sweep.HashBytes([]byte(key))
		entry, err = s.trainCoderCached(nil, key, id, KindPreselected, 0, nil)
		if err != nil {
			return nil, err
		}
	}
	return s.buildROM(ctx, entry, text, req.Workload, req.WordAligned)
}

// memoryModel maps the request's memory name through the shared resolver
// onto the error taxonomy.
func memoryModel(name string) (memory.Model, error) {
	mem, err := cliutil.MemoryModel(name)
	if err != nil {
		return nil, errBadRequest("%v", err)
	}
	return mem, nil
}
