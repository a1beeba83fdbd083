package core

import (
	"fmt"

	"ccrp/internal/cache"
	"ccrp/internal/clb"
	"ccrp/internal/lat"
	"ccrp/internal/trace"
)

// referenceCompare is the replay loop Compare ran before it was split
// into Replay and Price, kept as their oracle: it prices every miss as it
// happens, from a per-line table of refill charges, where Price sums each
// line's misses times its charge once the replay is done.
func referenceCompare(tr *trace.Trace, rom *ROM, cfg Config) (*Comparison, error) {
	cfg = cfg.withDefaults()
	if tr == nil || len(tr.Events) == 0 {
		return nil, ErrEmptyTrace
	}
	ic, err := cache.NewAssoc(cfg.CacheBytes, LineSize, cfg.CacheWays)
	if err != nil {
		return nil, err
	}
	buf := clb.New(cfg.CLBEntries)
	engine := RefillEngine{Mem: cfg.Mem, Rate: cfg.DecodeRate}
	post := cfg.Mem.PostBurstCycles()
	charge := func(refill uint64) uint64 {
		refill += post
		return refill - min(cfg.OverlapCycles, refill)
	}

	cmp := &Comparison{}
	std, ccrp := &cmp.Standard, &cmp.CCRP

	stdLineRefill := charge(engine.RawLineCycles(LineSize))
	latFetch := engine.LATFetchCycles() + post
	lineRefill := make([]uint64, len(rom.Lines))
	for li := range rom.Lines {
		lineRefill[li] = charge(engine.LineCycles(rom, li))
	}

	var dataAccesses, seq uint64
	for _, run := range tr.Events {
		pc, n := run.PC, uint64(run.N)
		dataAccesses += uint64(run.Loads) + uint64(run.Stores)
		if !ic.AccessRun(pc, n) {
			std.RefillCycles += stdLineRefill
			std.TrafficBytes += LineSize

			li, err := rom.LineIndex(pc)
			if err != nil {
				return nil, fmt.Errorf("core: trace fetch %#x outside program text: %w", pc, err)
			}
			latIdx := pc / lat.GroupSpan
			if _, hit := buf.Lookup(latIdx); !hit {
				ccrp.CLBMisses++
				ccrp.RefillCycles += latFetch
				ccrp.TrafficBytes += lat.EntryBytes
				buf.Insert(latIdx, rom.Table.Entries[latIdx])
			}
			ccrp.RefillCycles += lineRefill[li]
			ccrp.TrafficBytes += LineTrafficBytes(rom, li)
		}
		seq += n
	}

	base := seq + tr.Stalls
	std.BaseCycles, ccrp.BaseCycles = base, base

	cs := ic.Stats()
	std.Accesses, ccrp.Accesses = cs.Accesses, cs.Accesses
	std.Misses, ccrp.Misses = cs.Misses, cs.Misses

	dataCost := uint64(float64(dataAccesses) * float64(dataAccessCycles) * cfg.DCacheMissRate)
	std.DataCycles, ccrp.DataCycles = dataCost, dataCost

	std.Cycles = std.BaseCycles + std.RefillCycles + std.DataCycles
	ccrp.Cycles = ccrp.BaseCycles + ccrp.RefillCycles + ccrp.DataCycles
	return cmp, nil
}

// ReferenceCompare exports referenceCompare to this package's external
// tests, which check Compare against it on the corpus workloads.
var ReferenceCompare = referenceCompare
