// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) from the reproduction's own corpus, simulator, and CCRP
// core. Each experiment function returns structured rows, its
// datapoints. The experiment table (registry.go) registers each table and
// figure once, as a name, its data function and a printer of exactly
// those datapoints in the paper's layout; Render prints one and
// WriteBenchJSON writes the datapoints. DESIGN.md maps experiment ids to
// these functions, and EXPERIMENTS.md records paper-vs-measured values.
//
// The performance sweeps (Tables 1-10, Figure 9, Tables 11-13) run on the
// internal/sweep engine: points fan out across a bounded worker pool with
// results merged by index, and every trained artifact — the preselected
// code, per-program codes, the CodePack dictionaries, each program's
// compressed ROM image, and each program's miss profile per cache
// geometry — is built once per unique configuration through a
// single-flight cache, no matter how many points or workers need it. A
// point prices its profile (core.Price) instead of replaying its trace.
package experiments

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"

	"ccrp/internal/cache"
	"ccrp/internal/clb"
	"ccrp/internal/core"
	"ccrp/internal/huffman"
	"ccrp/internal/memory"
	"ccrp/internal/metrics"
	"ccrp/internal/sweep"
	"ccrp/internal/tracing"
	"ccrp/internal/workload"
)

// CacheSizes is the paper's instruction cache sweep (§4.2.1).
var CacheSizes = []int{256, 512, 1024, 2048, 4096}

// CLBSizes is the paper's CLB sweep (§4.2.2).
var CLBSizes = []int{4, 8, 16}

// DCacheMissRates is the paper's §4.2.4 sweep.
var DCacheMissRates = []float64{0, 0.02, 0.10, 0.25, 1.00}

// PerfPrograms are the eight programs of Tables 1-8, in table order.
var PerfPrograms = []string{
	"nasa7", "matrix25a", "fpppp", "espresso",
	"nasa1", "eightq", "tomcatv", "lloop01",
}

// HuffmanBound is the paper's 16-bit codeword cap.
const HuffmanBound = 16

// Artifact cache: trained coders addressed by content (corpus hash +
// coder type + configuration), and each corpus program's preselected ROM
// and miss profiles addressed by its name. Swapped wholesale by
// resetArtifacts for cold-cache test runs.
var (
	artMu sync.Mutex
	arts  = sweep.NewCache()
)

func artifacts() *sweep.Cache {
	artMu.Lock()
	defer artMu.Unlock()
	return arts
}

// resetArtifacts discards every cached artifact, forcing the next sweep
// to retrain coders and rebuild ROMs. Used by tests; not safe
// concurrently with a running sweep.
func resetArtifacts() {
	artMu.Lock()
	arts = sweep.NewCache()
	artMu.Unlock()
}

// CorpusHistogram pools the byte histograms of the ten Figure 5 programs,
// the data the paper built its preselected code from.
func CorpusHistogram() (*huffman.Histogram, error) {
	var h huffman.Histogram
	for _, w := range workload.Figure5Set() {
		text, err := w.Text()
		if err != nil {
			return nil, err
		}
		h.Add(text)
	}
	return &h, nil
}

// corpusKeys holds the corpus's content address and the preselected
// code's artifact key, computed once: the corpus registry is immutable
// for the life of the process, so the keys — unlike the artifacts built
// from them — never need invalidation.
type corpusKeys struct {
	corpus string // content address of the Figure 5 texts
	presel string // artifact key of the preselected code
}

var corpusKey = sync.OnceValues(func() (corpusKeys, error) {
	var parts []any
	for _, w := range workload.Figure5Set() {
		text, err := w.Text()
		if err != nil {
			return corpusKeys{}, err
		}
		parts = append(parts, text)
	}
	ck := sweep.Key(parts...)
	return corpusKeys{corpus: ck, presel: sweep.Key("huffman/preselected", HuffmanBound, ck)}, nil
})

// histogramBytes serializes a histogram for content addressing.
func histogramBytes(h *huffman.Histogram) []byte {
	out := make([]byte, 8*len(h))
	for i, c := range h {
		binary.LittleEndian.PutUint64(out[8*i:], c)
	}
	return out
}

// PreselectedCode returns the Preselected Bounded Huffman code: a 16-bit
// bounded code over the smoothed corpus histogram, fixed for every
// program and hardwired in the decoder. Trained once per corpus through
// the artifact cache.
func PreselectedCode() (*huffman.Code, error) {
	keys, err := corpusKey()
	if err != nil {
		return nil, err
	}
	return sweep.Get(artifacts(), keys.presel,
		func() (*huffman.Code, error) {
			h, err := CorpusHistogram()
			if err != nil {
				return nil, err
			}
			return huffman.BuildBounded(h.Smooth(), HuffmanBound)
		})
}

// boundedCode trains (or fetches) the bound-limited code for a histogram,
// content-addressed so identical histograms share one training run across
// experiments, workers, and CLI invocations in the same process.
func boundedCode(h *huffman.Histogram, bound int) (*huffman.Code, error) {
	return sweep.Get(artifacts(), sweep.Key("huffman/bounded", bound, histogramBytes(h)),
		func() (*huffman.Code, error) { return huffman.BuildBounded(h, bound) })
}

// traditionalCode is boundedCode's unbounded sibling.
func traditionalCode(h *huffman.Histogram) (*huffman.Code, error) {
	return sweep.Get(artifacts(), sweep.Key("huffman/traditional", histogramBytes(h)),
		func() (*huffman.Code, error) { return huffman.BuildTraditional(h) })
}

// OwnCode returns the bound-limited code trained on one program's own
// bytes (the ccpack -own / §2.2 multi-code scheme), cached by content.
func OwnCode(text []byte) (*huffman.Code, error) {
	return boundedCode(huffman.HistogramOf(text), HuffmanBound)
}

// preselROM returns the program's compressed image under the preselected
// code — the ROM every performance point of Tables 1-13 and Figure 9
// shares. Built ROMs are read-only, so one instance serves concurrent
// workers. The key is the program's name, not a hash of its text: the
// workload registry, and with it the preselected code, never changes
// within a process, and this cache is never persisted.
func preselROM(w *workload.Workload) (*core.ROM, error) {
	return sweep.Get(artifacts(), sweep.Key("rom/preselected", w.Name),
		func() (*core.ROM, error) {
			code, err := PreselectedCode()
			if err != nil {
				return nil, err
			}
			text, err := w.Text()
			if err != nil {
				return nil, err
			}
			return core.BuildROM(text, core.Options{Codes: []*huffman.Code{code}})
		})
}

// missProfile returns the program's miss profile under one i-cache and
// CLB geometry, replayed once per process: the 295 points of Tables 1-13
// and Figure 9 share 60 of them. A profile prices every ROM of the
// program (core.Price), so the key names no coder, and the program's
// name stands for its trace as it does for preselROM's text.
func missProfile(w *workload.Workload, cacheBytes, ways, clbEntries int) (*core.Profile, error) {
	return sweep.Get(artifacts(), sweep.Key("profile", w.Name, cacheBytes, ways, clbEntries),
		func() (*core.Profile, error) {
			tr, err := w.Trace()
			if err != nil {
				return nil, err
			}
			rom, err := preselROM(w)
			if err != nil {
				return nil, err
			}
			return core.Replay(tr, rom, core.Config{CacheBytes: cacheBytes, CacheWays: ways, CLBEntries: clbEntries})
		})
}

// Engine state: the sweep engine every point sweep runs on. Set once at
// CLI startup (ccrp-bench -j) and read per sweep.
var (
	engMu  sync.Mutex
	engCur *sweep.Engine
)

// SetEngine attaches a sweep engine to every subsequent point sweep
// (Tables1to8, Tables9and10, Figure9, Tables11to13, and the -json
// export). A nil engine restores the default: sequential execution with
// no instrumentation. The engine's Tracer gets a span tree per point.
// Its Registry gets each sweep's totals, summed over the priced points
// once the sweep has run: i-cache accesses and hits, CLB hits and
// misses, and the CCRP's refill cycles.
func SetEngine(e *sweep.Engine) {
	engMu.Lock()
	engCur = e
	engMu.Unlock()
}

func currentEngine() *sweep.Engine {
	engMu.Lock()
	defer engMu.Unlock()
	return engCur
}

// compareConfig computes one point with the preselected code on a
// direct-mapped cache, pricing the cached miss profile of its geometry
// (core.Price) with the cached ROM. The train/build/run stages hang off
// sp (no-ops when tracing is off), so a traced sweep decomposes each
// point's cost the same way the paper splits coder selection,
// compression, and execution.
func compareConfig(s pointSpec, sp *tracing.Span) (*core.Comparison, error) {
	w, ok := workload.ByName(s.prog)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown workload %q", s.prog)
	}
	sp.SetAttr("workload", s.prog)
	tsp := sp.Child(sweep.StageTrain)
	_, err := PreselectedCode()
	if err != nil {
		tsp.SetError(err)
		tsp.End()
		return nil, err
	}
	tsp.End()
	bsp := sp.Child(sweep.StageBuild)
	rom, err := preselROM(w)
	if err != nil {
		bsp.SetError(err)
		bsp.End()
		return nil, err
	}
	bsp.End()
	cfg := core.Config{CacheBytes: s.cacheBytes, CLBEntries: s.clb, Mem: s.mem}
	if s.dmiss < 1 {
		cfg.DataCache = true
		cfg.DCacheMissRate = s.dmiss
	}
	rsp := sp.Child(sweep.StageRun)
	cmp, err := runConfig(w, rom, cfg)
	if err != nil {
		rsp.SetError(err)
	}
	rsp.End()
	return cmp, err
}

// runConfig is compareConfig's run stage, over w's image rom.
func runConfig(w *workload.Workload, rom *core.ROM, cfg core.Config) (*core.Comparison, error) {
	p, err := missProfile(w, cfg.CacheBytes, 1, cfg.CLBEntries)
	if err != nil {
		return nil, err
	}
	return core.Price(p, rom, cfg)
}

// PerfPoint is one row of Tables 1-10 and one point of Figure 9.
type PerfPoint struct {
	Program        string
	Memory         string
	CacheBytes     int
	CLBEntries     int
	DCacheMissRate float64
	RelPerf        float64 // CCRP cycles / standard cycles (paper convention)
	MissRate       float64 // shared i-cache miss rate
	Traffic        float64 // CCRP / standard instruction memory traffic
	CLBMissRate    float64 // CLB misses / i-cache misses
	CyclesCCRP     uint64  // total CCRP execution cycles
	CyclesStd      uint64  // total standard-system execution cycles
}

// pointSpec identifies one sweep point; sweeps build their full spec list
// up front so the engine can fan it out with index-stable results.
type pointSpec struct {
	prog       string
	cacheBytes int
	clb        int
	mem        memory.Model
	dmiss      float64
}

// perfPoint is the row of spec s whose comparison is cmp.
func perfPoint(s pointSpec, cmp *core.Comparison) PerfPoint {
	p := PerfPoint{
		Program:        s.prog,
		Memory:         s.mem.Name(),
		CacheBytes:     s.cacheBytes,
		CLBEntries:     s.clb,
		DCacheMissRate: s.dmiss,
		RelPerf:        cmp.RelativePerformance(),
		MissRate:       cmp.MissRate(),
		Traffic:        cmp.TrafficRatio(),
		CyclesCCRP:     cmp.CCRP.Cycles,
		CyclesStd:      cmp.Standard.Cycles,
	}
	if cmp.CCRP.Misses > 0 {
		p.CLBMissRate = float64(cmp.CCRP.CLBMisses) / float64(cmp.CCRP.Misses)
	}
	return p
}

// Point computes one performance point (exported for the benchmark
// harness and examples), untraced and outside any sweep's totals.
func Point(name string, cacheBytes, clbEntries int, mem memory.Model, dmiss float64) (PerfPoint, error) {
	s := pointSpec{name, cacheBytes, clbEntries, mem, dmiss}
	cmp, err := compareConfig(s, nil)
	if err != nil {
		return PerfPoint{}, err
	}
	return perfPoint(s, cmp), nil
}

// sweepPoints fans the specs across the current engine's worker pool.
// Results come back in spec order whatever the worker count, which is
// what makes -j 1 and -j N output byte-identical; so are the totals it
// adds to the engine's registry. Without a registry a point keeps
// nothing beyond its row.
func sweepPoints(specs []pointSpec) ([]PerfPoint, error) {
	e := currentEngine()
	var stats []core.Stats // each point's CCRP statistics, for the totals
	if e != nil && e.Registry != nil {
		stats = make([]core.Stats, len(specs))
	}
	pts, err := sweep.Map(context.Background(), e, len(specs),
		func(_ context.Context, i int, sp *tracing.Span) (PerfPoint, error) {
			cmp, err := compareConfig(specs[i], sp)
			if err != nil {
				return PerfPoint{}, err
			}
			if stats != nil {
				stats[i] = cmp.CCRP
			}
			return perfPoint(specs[i], cmp), nil
		})
	if err != nil {
		return nil, err
	}
	if stats != nil {
		sweepTotals(e.Registry, stats)
	}
	return pts, nil
}

// sweepTotals adds a sweep's totals to reg in point order: the i-cache
// and CLB counters, under the names cache.Counters and clb.Counters give
// them (every miss probes the CLB), and the CCRP's refill cycles,
// LAT fetches included. Each is an exact sum over the priced points.
func sweepTotals(reg *metrics.Registry, stats []core.Stats) {
	accesses, hits := cache.Counters(reg)
	clbHits, clbMisses := clb.Counters(reg)
	refill := reg.Counter("ccrp_refill_cycles_total", "CCRP instruction cache refill cycles, LAT fetches included")
	for _, s := range stats {
		accesses.Add(s.Accesses)
		hits.Add(s.Accesses - s.Misses)
		clbHits.Add(s.Misses - s.CLBMisses)
		clbMisses.Add(s.CLBMisses)
		refill.Add(s.RefillCycles)
	}
}

// groupByProgram folds index-ordered sweep results back into the
// per-program table layout.
func groupByProgram(specs []pointSpec, pts []PerfPoint) map[string][]PerfPoint {
	out := make(map[string][]PerfPoint)
	for i, s := range specs {
		out[s.prog] = append(out[s.prog], pts[i])
	}
	return out
}

// Tables1to8 reproduces the cache-size sweeps of Tables 1-8: relative
// performance, miss rate, and memory traffic at 256B-4KB under EPROM and
// Burst EPROM, with a 16-entry CLB and no data cache. As in the paper,
// the DRAM model (whose results track Burst EPROM closely) is included
// for one program only.
func Tables1to8() (map[string][]PerfPoint, error) {
	var specs []pointSpec
	for _, prog := range PerfPrograms {
		models := []memory.Model{memory.EPROM{}, memory.BurstEPROM{}}
		if prog == "matrix25a" {
			models = append(models, memory.SCDRAM{})
		}
		for _, mem := range models {
			for _, cs := range CacheSizes {
				specs = append(specs, pointSpec{prog, cs, 16, mem, 1.0})
			}
		}
	}
	pts, err := sweepPoints(specs)
	if err != nil {
		return nil, err
	}
	return groupByProgram(specs, pts), nil
}

// Tables9and10 reproduces the CLB size sweep for nasa7 (Table 9) and
// espresso (Table 10): relative performance vs cache size for 4-, 8-,
// and 16-entry CLBs.
func Tables9and10() (map[string][]PerfPoint, error) {
	var specs []pointSpec
	for _, prog := range []string{"nasa7", "espresso"} {
		for _, mem := range []memory.Model{memory.EPROM{}, memory.BurstEPROM{}} {
			for _, cs := range CacheSizes {
				for _, clb := range CLBSizes {
					specs = append(specs, pointSpec{prog, cs, clb, mem, 1.0})
				}
			}
		}
	}
	pts, err := sweepPoints(specs)
	if err != nil {
		return nil, err
	}
	return groupByProgram(specs, pts), nil
}

// Figure9 reproduces the performance-vs-miss-rate scatter: every program
// and cache size under all three memory models.
func Figure9() ([]PerfPoint, error) {
	var specs []pointSpec
	for _, prog := range PerfPrograms {
		for _, mem := range memory.Models() {
			for _, cs := range CacheSizes {
				specs = append(specs, pointSpec{prog, cs, 16, mem, 1.0})
			}
		}
	}
	return sweepPoints(specs)
}

// Tables11to13 reproduces the data-cache effect study (§4.2.4): a 1 KB
// instruction cache with the analytical data cache model swept over the
// paper's miss rates, for nasa7, espresso, and fpppp.
func Tables11to13() (map[string][]PerfPoint, error) {
	var specs []pointSpec
	for _, prog := range []string{"nasa7", "espresso", "fpppp"} {
		for _, mem := range []memory.Model{memory.EPROM{}, memory.BurstEPROM{}} {
			for _, dm := range DCacheMissRates {
				specs = append(specs, pointSpec{prog, 1024, 16, mem, dm})
			}
		}
	}
	pts, err := sweepPoints(specs)
	if err != nil {
		return nil, err
	}
	return groupByProgram(specs, pts), nil
}
