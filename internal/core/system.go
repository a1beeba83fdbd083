package core

import (
	"errors"
	"fmt"

	"ccrp/internal/cache"
	"ccrp/internal/clb"
	"ccrp/internal/lat"
	"ccrp/internal/memory"
	"ccrp/internal/trace"
)

// Config describes one simulated machine (paper §3/§4.1): its cache,
// CLB, memories and decoder. The program image it runs is not part of
// it; that is the ROM the host tool built, which Compare, Replay and
// Price take beside the Config.
type Config struct {
	CacheBytes int          // i-cache size, 256..4096 in the paper
	CacheWays  int          // associativity; 0/1 = the paper's direct-mapped
	CLBEntries int          // 4, 8, or 16
	Mem        memory.Model // instruction memory timing
	DecodeRate int          // decoder bytes/cycle; 0 = the paper's 2, negative is rejected

	// Every data access costs dataAccessCycles. With DataCache set,
	// §4.2.4's analytical model applies instead: hits are free and only
	// the DCacheMissRate fraction of accesses pays. Without DataCache
	// every access pays full cost (the paper's base configuration).
	DataCache      bool
	DCacheMissRate float64

	// OverlapCycles lets the processor pipeline continue for up to this
	// many cycles into each line refill (the paper's §5 "allow the
	// processor to continue during memory delays" extension; 0 = the
	// paper's blocking model).
	OverlapCycles uint64
}

// dataAccessCycles is the cost of one access to the random DRAM that
// holds data, the paper's 4 cycles.
const dataAccessCycles = 4

// withDefaults fills unset fields with the paper's base parameters.
func (c Config) withDefaults() Config {
	if c.CacheBytes == 0 {
		c.CacheBytes = 1024
	}
	if c.CacheWays == 0 {
		c.CacheWays = 1
	}
	if c.CLBEntries == 0 {
		c.CLBEntries = 16
	}
	if c.Mem == nil {
		c.Mem = memory.BurstEPROM{}
	}
	if !c.DataCache {
		c.DCacheMissRate = 1.0
	}
	return c
}

// Stats accumulates one system's execution costs over a trace.
type Stats struct {
	Cycles       uint64 `json:"cycles"`        // total execution cycles
	BaseCycles   uint64 `json:"base_cycles"`   // instructions + pipeline stalls
	RefillCycles uint64 `json:"refill_cycles"` // i-cache refill cycles (incl. CLB refills)
	DataCycles   uint64 `json:"data_cycles"`   // data memory cycles
	Accesses     uint64 `json:"accesses"`      // instruction fetches
	Misses       uint64 `json:"misses"`        // i-cache misses
	CLBMisses    uint64 `json:"clb_misses"`    // CCRP only
	TrafficBytes uint64 `json:"traffic_bytes"` // instruction bytes moved from main memory
}

// MissRate returns the instruction cache miss rate.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Comparison is the outcome of running one trace through the standard
// and CCRP systems.
type Comparison struct {
	Standard Stats
	CCRP     Stats
}

// RelativePerformance follows the paper's tables: CCRP execution time
// over standard execution time. Values below 1.0 mean the compressed
// system is faster.
func (c *Comparison) RelativePerformance() float64 {
	if c.Standard.Cycles == 0 {
		return 1
	}
	return float64(c.CCRP.Cycles) / float64(c.Standard.Cycles)
}

// TrafficRatio is CCRP instruction memory traffic over standard traffic.
func (c *Comparison) TrafficRatio() float64 {
	if c.Standard.TrafficBytes == 0 {
		return 1
	}
	return float64(c.CCRP.TrafficBytes) / float64(c.Standard.TrafficBytes)
}

// MissRate is the shared instruction cache miss rate (identical for both
// systems: in-cache code is identical, so hit/miss sequences coincide).
func (c *Comparison) MissRate() float64 { return c.Standard.MissRate() }

// ErrEmptyTrace is returned for traces with no instruction events.
var ErrEmptyTrace = errors.New("core: empty trace")

// ErrMissRate is returned by Price for a data-cache miss rate outside
// [0, 1], NaN included; without DataCache the rate is not read.
var ErrMissRate = errors.New("core: data-cache miss rate outside [0, 1]")

// ErrDecodeRate is returned by Price for a negative decode rate. A rate
// of 0 selects the paper's DecodeBytesPerCycle.
var ErrDecodeRate = errors.New("core: negative decode rate")

// checkPricing reports a pricing parameter no refill can be priced at.
func (c Config) checkPricing() error {
	if c.DecodeRate < 0 {
		return fmt.Errorf("%w: %d", ErrDecodeRate, c.DecodeRate)
	}
	if c.DataCache && !(c.DCacheMissRate >= 0 && c.DCacheMissRate <= 1) {
		return fmt.Errorf("%w: %g", ErrMissRate, c.DCacheMissRate)
	}
	return nil
}

// ErrProfileMismatch is returned by Price for a profile whose line count
// differs from the ROM's: the profile was replayed over another program.
var ErrProfileMismatch = errors.New("core: profile does not match the ROM")

// A trace run must lie inside one i-cache line for Replay to decide the
// whole run from its first fetch; this fails to compile otherwise.
const _ uint = LineSize - trace.LineBytes

// Compare runs the trace through both systems, the CCRP fetching from
// rom, the image of the traced program: Replay decides the misses, and
// Price adds up what they cost. A built ROM is read-only here, so
// concurrent Compare calls may share one.
//
// Both processors share the same cache geometry, so one cache pass drives
// both cycle models; they differ only in what a miss costs. The CLB is
// consulted on instruction cache misses; the paper's hardware probes it
// every fetch so a hit is free, which is what charging CLB penalties only
// on misses models.
func Compare(tr *trace.Trace, rom *ROM, cfg Config) (*Comparison, error) {
	p, err := Replay(tr, rom, cfg)
	if err != nil {
		return nil, err
	}
	return Price(p, rom, cfg)
}

// Profile is what a trace decides under one cache and CLB geometry:
// which lines miss and how often, and how many misses also miss the CLB.
// The memory model, decode rate, overlap window and data cache change
// only what a miss costs, so one profile prices every such configuration
// (the paper's §4.1 method: the traces drive a cache simulator once, and
// the misses are priced per memory system). Nor does a profile depend on
// the coder, since ROM lines index the program text whatever compresses
// it.
type Profile struct {
	LineMisses   []uint64 // i-cache misses per ROM line, indexed like ROM.Lines
	Accesses     uint64   // instruction fetches, one i-cache access each
	CLBMisses    uint64   // i-cache misses that also missed the CLB
	DataAccesses uint64   // loads and stores
	Stalls       uint64   // pipeline stall cycles
}

// Replay runs the trace through an i-cache and CLB of cfg's geometry
// (CacheBytes, CacheWays, CLBEntries) and returns its miss profile. rom
// supplies the line and LAT-group indices; every ROM of the traced
// program gives the same profile.
//
// The pass visits the trace's runs: a run's first fetch may miss, and its
// other fetches hit the line that fetch left resident.
func Replay(tr *trace.Trace, rom *ROM, cfg Config) (*Profile, error) {
	cfg = cfg.withDefaults()
	if tr == nil || len(tr.Events) == 0 {
		return nil, ErrEmptyTrace
	}
	ic, err := cfg.newCache()
	if err != nil {
		return nil, err
	}
	buf := clb.New(cfg.CLBEntries)
	p := &Profile{LineMisses: make([]uint64, len(rom.Lines)), Stalls: tr.Stalls}
	for _, run := range tr.Events {
		p.DataAccesses += uint64(run.Loads) + uint64(run.Stores)
		if ic.AccessRun(run.PC, uint64(run.N)) {
			continue
		}
		li, err := rom.LineIndex(run.PC)
		if err != nil {
			return nil, fmt.Errorf("core: trace fetch %#x outside program text: %w", run.PC, err)
		}
		p.LineMisses[li]++
		latIdx := run.PC / lat.GroupSpan
		if _, hit := buf.Lookup(latIdx); !hit {
			p.CLBMisses++
			buf.Insert(latIdx, rom.Table.Entries[latIdx])
		}
	}
	p.Accesses = ic.Stats().Accesses
	return p, nil
}

// newCache checks cfg's geometry, the i-cache's and the CLB's, and
// builds the i-cache.
func (c Config) newCache() (*cache.Cache, error) {
	ic, err := cache.NewAssoc(c.CacheBytes, LineSize, c.CacheWays)
	if err != nil {
		return nil, err
	}
	if c.CLBEntries < 0 {
		return nil, fmt.Errorf("core: CLB size %d must be positive", c.CLBEntries)
	}
	return ic, nil
}

// Price adds up both systems' costs from a miss profile under cfg's
// memory model, decode rate, overlap window and data-cache parameters;
// the geometry is the profile's, and cfg's is not read. A line's refill
// charge is the same on every miss, so the CCRP's refill cycles are the
// sum over lines of misses × charge, plus one LAT fetch per CLB miss:
// O(lines) work, all of it integer, so the sum is exactly what pricing
// each miss as it happens gives. A profile of another program is
// rejected with ErrProfileMismatch, a negative decode rate with
// ErrDecodeRate, and a data-cache miss rate outside [0, 1] with
// ErrMissRate.
func Price(p *Profile, rom *ROM, cfg Config) (*Comparison, error) {
	if len(p.LineMisses) != len(rom.Lines) {
		return nil, fmt.Errorf("%w: %d line counts for %d ROM lines",
			ErrProfileMismatch, len(p.LineMisses), len(rom.Lines))
	}
	if err := cfg.checkPricing(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	t := newTariff(cfg)

	cmp := &Comparison{}
	std, ccrp := &cmp.Standard, &cmp.CCRP
	var misses uint64
	for li, n := range p.LineMisses {
		if n == 0 {
			continue
		}
		misses += n
		ccrp.RefillCycles += n * t.line(rom, li)
		ccrp.TrafficBytes += n * LineTrafficBytes(rom, li)
	}
	ccrp.CLBMisses = p.CLBMisses
	ccrp.RefillCycles += p.CLBMisses * t.latFetch
	ccrp.TrafficBytes += p.CLBMisses * lat.EntryBytes
	std.RefillCycles = misses * t.std
	std.TrafficBytes = misses * LineSize

	base := p.Accesses + p.Stalls
	std.BaseCycles, ccrp.BaseCycles = base, base
	std.Accesses, ccrp.Accesses = p.Accesses, p.Accesses
	std.Misses, ccrp.Misses = misses, misses

	dataCost := uint64(float64(p.DataAccesses) * float64(dataAccessCycles) * cfg.DCacheMissRate)
	std.DataCycles, ccrp.DataCycles = dataCost, dataCost

	std.Cycles = std.BaseCycles + std.RefillCycles + std.DataCycles
	ccrp.Cycles = ccrp.BaseCycles + ccrp.RefillCycles + ccrp.DataCycles
	return cmp, nil
}
