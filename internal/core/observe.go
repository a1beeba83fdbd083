package core

import (
	"fmt"

	"ccrp/internal/cache"
	"ccrp/internal/clb"
	"ccrp/internal/metrics"
	"ccrp/internal/trace"
)

// Observe records on reg what the miss profile p, replayed from tr over
// rom under cfg, says about the run: i-cache accesses, hits and misses
// per set; CLB hits, misses and evictions; the refill-cycle and
// stored-bytes distributions; LAT fetches, raw refills, decoder
// utilization and the CLB hit ratio; and the fetches of every ROM line.
// Each series is a sum over the profile, and every line is priced with
// the tariff Price uses, so the series agree with Price's Comparison
// exactly. cfg must hold the geometry p was replayed under. Observe
// rejects what Price rejects, and a trace that fetches outside rom.
func Observe(reg *metrics.Registry, tr *trace.Trace, p *Profile, rom *ROM, cfg Config) error {
	if len(p.LineMisses) != len(rom.Lines) {
		return fmt.Errorf("%w: %d line counts for %d ROM lines",
			ErrProfileMismatch, len(p.LineMisses), len(rom.Lines))
	}
	if err := cfg.checkPricing(); err != nil {
		return err
	}
	cfg = cfg.withDefaults()
	ic, err := cfg.newCache()
	if err != nil {
		return err
	}
	fetched := make([]uint64, len(rom.Lines))
	for _, run := range tr.Events {
		li, err := rom.LineIndex(run.PC)
		if err != nil {
			return fmt.Errorf("%w: %w", ErrProfileMismatch, err)
		}
		fetched[li] += uint64(run.N)
	}
	var misses uint64
	for _, n := range p.LineMisses {
		misses += n
	}

	// The registry exports in registration order: the cache's series,
	// then the CLB's, then the refills'.
	accesses, hits := cache.Counters(reg)
	accesses.Add(p.Accesses)
	hits.Add(p.Accesses - misses)
	setVec := cache.SetMisses(reg)
	setMisses := make([]*metrics.Counter, ic.Lines()/cfg.CacheWays)
	for s := range setMisses {
		setMisses[s] = setVec.WithInt(s)
	}
	for li, n := range p.LineMisses {
		setMisses[ic.Set(uint32(li)*LineSize)].Add(n)
	}

	// Replay probes the CLB on every i-cache miss and inserts only after
	// a CLB miss; an insert takes a free slot while one is left.
	clbHits, clbMisses := clb.Counters(reg)
	clbHits.Add(misses - p.CLBMisses)
	clbMisses.Add(p.CLBMisses)
	reg.Counter("ccrp_clb_evictions_total", "CLB valid-entry evictions").
		Add(p.CLBMisses - min(p.CLBMisses, uint64(cfg.CLBEntries)))

	refillHist := reg.Histogram("ccrp_refill_cycles",
		"CCRP line refill cycles per instruction cache miss",
		metrics.LinearBuckets(4, 4, 16))
	storedHist := reg.Histogram("ccrp_line_stored_bytes",
		"stored (compressed) bytes per ROM line",
		metrics.LinearBuckets(4, 4, 8))
	reg.Counter("ccrp_lat_fetches_total",
		"LAT entries fetched from instruction memory on CLB misses").Add(p.CLBMisses)
	rawRefills := reg.Counter("ccrp_raw_refills_total",
		"refills served from raw (bypass) lines")
	util := reg.Gauge("ccrp_decoder_utilization",
		"decoder output bytes per available decode-byte slot during compressed refills")
	clbRatio := reg.Gauge("ccrp_clb_hit_ratio", "CLB probe hit ratio")
	fetchVec := reg.CounterVec("ccrp_line_fetches_total",
		"instruction fetches by ROM line index", "line")
	for li := range rom.Lines {
		fetchVec.WithInt(li).Add(fetched[li])
		storedHist.Observe(float64(rom.storedLen(li)))
	}

	t := newTariff(cfg)
	var decBytes, decCycles uint64 // decoder output and busy cycles over compressed refills
	for li, n := range p.LineMisses {
		if n == 0 {
			continue
		}
		cycles := t.line(rom, li)
		for range n {
			refillHist.Observe(float64(cycles))
		}
		if rom.Raw(li) {
			rawRefills.Add(n)
		} else if cycles > 0 {
			decBytes += n * LineSize
			decCycles += n * cycles
		}
	}
	if decCycles > 0 {
		util.Set(float64(decBytes) / float64(decCycles*uint64(t.engine.rate())))
	}
	if misses > 0 {
		clbRatio.Set(1 - float64(p.CLBMisses)/float64(misses))
	}
	return nil
}
