// Package metrics is the observability registry of the simulators and
// daemons: named counters, gauges, and fixed-bucket histograms, with
// text/JSON/Prometheus exporters (export.go) and a buffered JSONL writer
// (jsonl.go) that tracing writes its spans through.
//
// The design mirrors the paper's experimental method: every aggregate in
// Tables 1-13 and Figures 1-9 is a sum over a trace's misses, and
// core.Observe exports the intermediate sums (per-set cache misses, CLB
// evictions, refill-cycle distributions, per-line fetch counts) that the
// final Stats struct collapses away, from the same miss profile that
// core.Price prices.
//
// A nil *Registry returns nil instruments, and every instrument method is
// a no-op on a nil receiver, so a disabled instrument costs one pointer
// test and allocates nothing (verified by TestDisabledInstrumentsAllocFree).
// The package depends only on the standard library.
package metrics

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// Counter is a monotonically increasing uint64.
type Counter struct {
	v uint64
}

// Inc adds one. It is a no-op on a nil receiver.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n. It is a no-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count; zero on a nil receiver.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a settable float64.
type Gauge struct {
	v float64
}

// Set records v. It is a no-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Value returns the last set value; zero on a nil receiver.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram counts observations into fixed buckets. Bucket i counts
// observations v with bounds[i-1] < v <= bounds[i] (Prometheus "le"
// semantics); one extra overflow bucket catches v > bounds[len-1].
type Histogram struct {
	bounds []float64 // upper bounds, ascending
	counts []uint64  // len(bounds)+1; last is the +Inf overflow
	sum    float64
	n      uint64
}

// Observe records one value. It is a no-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket lists are short (≤ ~20) and this avoids the
	// sort.SearchFloat64s closure allocation on the hot path.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// Count returns the number of observations; zero on a nil receiver.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the sum of observed values; zero on a nil receiver.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Bounds returns the bucket upper bounds (not including +Inf).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// BucketCounts returns the per-bucket (non-cumulative) counts; the final
// element is the +Inf overflow bucket.
func (h *Histogram) BucketCounts() []uint64 {
	if h == nil {
		return nil
	}
	return h.counts
}

// ExpBuckets returns n upper bounds start, start*factor, ... — the usual
// shape for cycle-count distributions.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n upper bounds start, start+step, ....
func LinearBuckets(start, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*step
	}
	return out
}

// labelVec is a family of instruments distinguished by one label.
// Children are created on first use and exported in label-sorted order.
type labelVec[T Counter | Gauge] struct {
	label    string
	index    map[string]*T
	order    []string
	numLabel bool // every label value so far parsed as an integer
}

// CounterVec is a family of counters distinguished by one label (e.g.
// per-cache-set miss counters labelled by set index).
type CounterVec = labelVec[Counter]

// GaugeVec is a family of gauges distinguished by one label (e.g.
// per-backend up/down state labelled by node address).
type GaugeVec = labelVec[Gauge]

// With returns the child instrument for the label value, creating it if
// needed. It returns nil (a no-op instrument) on a nil receiver, so
// callers may cache children unconditionally.
func (v *labelVec[T]) With(value string) *T {
	if v == nil {
		return nil
	}
	if c, ok := v.index[value]; ok {
		return c
	}
	c := new(T)
	v.index[value] = c
	v.order = append(v.order, value)
	if _, err := strconv.Atoi(value); err != nil {
		v.numLabel = false
	}
	return c
}

// WithInt is With for integer label values.
func (v *labelVec[T]) WithInt(value int) *T {
	if v == nil {
		return nil
	}
	return v.With(strconv.Itoa(value))
}

// labels returns the label values, numerically sorted when every value is
// an integer, lexically otherwise.
func (v *labelVec[T]) labels() []string {
	out := append([]string(nil), v.order...)
	if v.numLabel {
		sort.Slice(out, func(i, j int) bool {
			a, _ := strconv.Atoi(out[i])
			b, _ := strconv.Atoi(out[j])
			return a < b
		})
	} else {
		sort.Strings(out)
	}
	return out
}

// kind discriminates registered instruments for export.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	kindCounterVec
	kindGaugeVec
)

type instrument struct {
	name string
	help string
	kind kind
	c    *Counter
	g    *Gauge
	h    *Histogram
	vec  *CounterVec
	gvec *GaugeVec
}

// Registry holds a named set of instruments. The zero Registry is not
// usable; call New. A nil *Registry is the disabled state: every
// constructor returns a nil instrument whose methods no-op.
type Registry struct {
	mu    sync.Mutex
	order []*instrument
	index map[string]*instrument
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{index: make(map[string]*instrument)}
}

// lookup returns the existing instrument of the given name and kind, or
// registers the one built by mk. Re-registration with the same name is
// idempotent (repeated core.Compare calls over one registry accumulate
// into the same counters); a name clash across kinds panics, since it is
// always a programming error.
func (r *Registry) lookup(name, help string, k kind, mk func() *instrument) *instrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.index[name]; ok {
		if in.kind != k {
			panic(fmt.Sprintf("metrics: %q re-registered with a different type", name))
		}
		return in
	}
	in := mk()
	in.name, in.help, in.kind = name, help, k
	r.index[name] = in
	r.order = append(r.order, in)
	return in
}

// Counter returns the named counter, registering it on first use.
// Returns nil on a nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, func() *instrument {
		return &instrument{c: &Counter{}}
	}).c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, func() *instrument {
		return &instrument{g: &Gauge{}}
	}).g
}

// Histogram returns the named histogram with the given bucket upper
// bounds, registering it on first use (later calls keep the first
// bounds).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindHistogram, func() *instrument {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		return &instrument{h: &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}}
	}).h
}

// CounterVec returns the named counter family keyed by label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounterVec, func() *instrument {
		return &instrument{vec: &CounterVec{label: label, index: make(map[string]*Counter), numLabel: true}}
	}).vec
}

// GaugeVec returns the named gauge family keyed by label.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGaugeVec, func() *instrument {
		return &instrument{gvec: &GaugeVec{label: label, index: make(map[string]*Gauge), numLabel: true}}
	}).gvec
}

// snapshot returns the registered instruments in registration order.
func (r *Registry) snapshot() []*instrument {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*instrument(nil), r.order...)
}
