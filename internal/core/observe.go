package core

import (
	"strconv"

	"ccrp/internal/cache"
	"ccrp/internal/clb"
	"ccrp/internal/lat"
	"ccrp/internal/metrics"
	"ccrp/internal/trace"
)

// probe carries the optional observability state of one Replay: the
// registered instruments, the structured-event sink, and the per-line
// refill charges it records each miss at. A nil *probe is the disabled
// state; every method no-ops on it.
type probe struct {
	sink metrics.EventSink // nil when events are off
	rom  *ROM

	charges   []uint64 // CCRP refill charge per ROM line
	latCycles uint64   // charge of one LAT fetch

	refillHist *metrics.Histogram // CCRP refill cycles per i-cache miss
	storedHist *metrics.Histogram // static stored-bytes distribution over ROM lines
	lineFetch  []*metrics.Counter // fetch-frequency heatmap keyed by line index
	latFetches *metrics.Counter
	rawRefills *metrics.Counter
	decBytes   uint64 // decoder output bytes over compressed refills
	decCycles  uint64 // decoder busy cycles over compressed refills
	util       *metrics.Gauge
	clbRatio   *metrics.Gauge
	rate       uint64
	clb        *clb.CLB
}

// newProbe registers cfg's instruments, wires the cache and CLB hooks,
// and prices every ROM line under cfg. Either cfg.Metrics or cfg.Events
// may be nil.
func newProbe(cfg Config, rom *ROM, ic *cache.Cache, buf *clb.CLB) *probe {
	t := newTariff(cfg)
	p := &probe{
		sink: cfg.Events, rom: rom, clb: buf, rate: uint64(t.engine.rate()),
		charges: make([]uint64, len(rom.Lines)), latCycles: t.latFetch,
	}
	for li := range rom.Lines {
		p.charges[li] = t.line(rom, li)
	}
	if reg := cfg.Metrics; reg != nil {
		ic.Instrument(reg)
		buf.Instrument(reg)
		p.refillHist = reg.Histogram("ccrp_refill_cycles",
			"CCRP line refill cycles per instruction cache miss",
			metrics.LinearBuckets(4, 4, 16))
		p.storedHist = reg.Histogram("ccrp_line_stored_bytes",
			"stored (compressed) bytes per ROM line",
			metrics.LinearBuckets(4, 4, 8))
		p.latFetches = reg.Counter("ccrp_lat_fetches_total",
			"LAT entries fetched from instruction memory on CLB misses")
		p.rawRefills = reg.Counter("ccrp_raw_refills_total",
			"refills served from raw (bypass) lines")
		p.util = reg.Gauge("ccrp_decoder_utilization",
			"decoder output bytes per available decode-byte slot during compressed refills")
		p.clbRatio = reg.Gauge("ccrp_clb_hit_ratio", "CLB probe hit ratio")

		vec := reg.CounterVec("ccrp_line_fetches_total",
			"instruction fetches by ROM line index", "line")
		p.lineFetch = make([]*metrics.Counter, len(rom.Lines))
		for i := range rom.Lines {
			p.lineFetch[i] = vec.With(strconv.Itoa(i))
			p.storedHist.Observe(float64(len(rom.Lines[i].Stored)))
		}
	}
	return p
}

// fetches records n sequential instruction fetches inside one line,
// numbered from seq at pc.
func (p *probe) fetches(seq uint64, pc uint32, n uint64) {
	if p == nil || n == 0 {
		return
	}
	li := int(pc / LineSize)
	if p.lineFetch != nil && li < len(p.lineFetch) {
		p.lineFetch[li].Add(n)
	}
	if p.sink != nil {
		for i := range n {
			p.sink.Emit(metrics.Event{Type: metrics.EvFetch, Seq: seq + i, PC: pc + uint32(i)*trace.WordBytes, Line: li, Set: -1})
		}
	}
}

// miss records an instruction cache miss and the CLB probe outcome that
// follows it.
func (p *probe) miss(seq uint64, pc uint32, set int, clbHit bool) {
	if p == nil || p.sink == nil {
		return
	}
	li := int(pc / LineSize)
	p.sink.Emit(metrics.Event{Type: metrics.EvICacheMiss, Seq: seq, PC: pc, Line: li, Set: set})
	typ := metrics.EvCLBMiss
	if clbHit {
		typ = metrics.EvCLBHit
	}
	p.sink.Emit(metrics.Event{Type: typ, Seq: seq, PC: pc, Line: li, Set: -1})
}

// latFetch records a CLB miss being serviced: the possible eviction, then
// the LAT entry read.
func (p *probe) latFetch(seq uint64, pc uint32) {
	if p == nil {
		return
	}
	p.latFetches.Inc()
	if p.sink != nil {
		if age, full := p.clb.EvictionAge(); full {
			p.sink.Emit(metrics.Event{Type: metrics.EvCLBEvict, Seq: seq, PC: pc, Line: -1, Set: -1, Age: age})
		}
		p.sink.Emit(metrics.Event{
			Type: metrics.EvLATFetch, Seq: seq, PC: pc, Line: -1, Set: -1,
			Cycles: p.latCycles, Bytes: lat.EntryBytes,
		})
	}
}

// refill records one refill of ROM line li: its stored size, cycle cost,
// and the decoder throughput sample when the line was compressed.
func (p *probe) refill(seq uint64, pc uint32, li int) {
	if p == nil {
		return
	}
	cycles, l := p.charges[li], p.rom.Lines[li]
	p.refillHist.Observe(float64(cycles))
	if l.Raw {
		p.rawRefills.Inc()
	} else if cycles > 0 {
		p.decBytes += LineSize
		p.decCycles += cycles
	}
	if p.sink != nil {
		p.sink.Emit(metrics.Event{Type: metrics.EvRefillStart, Seq: seq, PC: pc, Line: li, Set: -1, Bytes: len(l.Stored)})
		p.sink.Emit(metrics.Event{Type: metrics.EvRefillEnd, Seq: seq, PC: pc, Line: li, Set: -1, Cycles: cycles})
	}
}

// finish computes the derived gauges once the trace has been consumed.
func (p *probe) finish() {
	if p == nil {
		return
	}
	if p.decCycles > 0 && p.rate > 0 {
		p.util.Set(float64(p.decBytes) / float64(p.decCycles*p.rate))
	}
	s := p.clb.Stats()
	if s.Hits+s.Misses > 0 {
		p.clbRatio.Set(1 - s.MissRate())
	}
}
