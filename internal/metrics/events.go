package metrics

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// Standard event types emitted by the instrumented simulator. Fetch
// events fire per instruction and are the ones worth sampling; the
// structural events (misses, refills, LAT fetches) are rare enough to
// keep unsampled.
const (
	EvFetch       = "fetch"        // one instruction fetch
	EvICacheMiss  = "icache_miss"  // instruction cache miss
	EvCLBHit      = "clb_hit"      // CLB probe hit
	EvCLBMiss     = "clb_miss"     // CLB probe miss (LAT fetch follows)
	EvCLBEvict    = "clb_evict"    // CLB replaced a valid entry
	EvLATFetch    = "lat_fetch"    // LAT entry read from instruction memory
	EvRefillStart = "refill_start" // line refill begins (line, stored bytes)
	EvRefillEnd   = "refill_end"   // line refill completes (cycle cost)
)

// Event is one structured trace record. PC is always present (address 0
// is a real fetch address); Line and Set are -1 when not meaningful for
// the event type, and the remaining zero fields are omitted.
type Event struct {
	Type   string `json:"type"`
	Seq    uint64 `json:"seq"`              // instruction index within the run
	PC     uint32 `json:"pc"`               // fetch address
	Line   int    `json:"line"`             // ROM line index, -1 when n/a
	Set    int    `json:"set"`              // cache set index, -1 when n/a
	Age    uint64 `json:"age,omitempty"`    // eviction age in probes (clb_evict)
	Cycles uint64 `json:"cycles,omitempty"` // cost in cycles (refill_end, lat_fetch)
	Bytes  int    `json:"bytes,omitempty"`  // stored bytes moved (refill_start, lat_fetch)
}

// EventSink consumes simulator events. Implementations need not be
// concurrency-safe; the simulators are single-threaded.
type EventSink interface {
	Emit(e Event)
	Close() error
}

// JSONLSink writes one JSON object per value through a buffer: an
// EventSink as JSONLSink[Event], a tracing.SpanSink as
// JSONLSink[tracing.Record]. A mutex serializes Emit and Close, since
// spans end on whatever goroutine ran their stage; Close may be called
// more than once.
type JSONLSink[T any] struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	enc *json.Encoder
	err error
}

// NewJSONLSink wraps w in a buffered JSONL encoder. If w is also an
// io.Closer (a file), the first Close closes it after flushing.
func NewJSONLSink[T any](w io.Writer) *JSONLSink[T] {
	bw := bufio.NewWriterSize(w, 1<<16)
	s := &JSONLSink[T]{w: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit writes v; the first write error sticks and is returned by Close.
func (s *JSONLSink[T]) Emit(v T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(v)
}

// Close flushes the buffer and closes the underlying writer if it is a
// Closer.
func (s *JSONLSink[T]) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ferr := s.w.Flush()
	if s.err == nil {
		s.err = ferr
	}
	if s.c != nil {
		cerr := s.c.Close()
		if s.err == nil {
			s.err = cerr
		}
		s.c = nil
	}
	return s.err
}

// SampledSink forwards fetch events at a 1-in-Every rate and every other
// event type unchanged. Every <= 1 forwards everything.
type SampledSink struct {
	Inner EventSink
	Every uint64
	seen  uint64
}

// Emit forwards e subject to fetch sampling.
func (s *SampledSink) Emit(e Event) {
	if e.Type == EvFetch && s.Every > 1 {
		s.seen++
		if s.seen%s.Every != 0 {
			return
		}
	}
	s.Inner.Emit(e)
}

// Close closes the inner sink.
func (s *SampledSink) Close() error { return s.Inner.Close() }
