// Package tracing is the request-scoped attribution layer of the stack:
// spans with a 128-bit trace id, a stage name, and a wall-clock duration,
// propagated through context.Context and exported as JSONL records in the
// style of internal/metrics' event sinks.
//
// The design mirrors the paper's experimental method one level up: where
// internal/metrics decomposes a simulated run into per-fetch event sums
// (CLB hits, LAT fetches, refill cycles), tracing decomposes a *served
// request* into per-stage wall-time sums — decode the body, resolve or
// train the coder, compress or decompress the blocks, queue for and run
// the simulator, encode the response — so an end-to-end p95 can be
// attributed to the stage that owns it.
//
// Disabled tracing is free by construction, exactly like a nil
// metrics.Registry: a nil *Tracer starts nil spans, and every method of a
// nil *Span is an allocation-free no-op (verified by
// TestDisabledSpansAllocFree), so instrumented paths never branch on an
// enable flag. The package depends only on the standard library.
package tracing

import (
	"context"
	"encoding/hex"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is the 128-bit identifier shared by every span of one request
// or sweep point. The zero value is invalid and never generated.
type TraceID [16]byte

// NewTraceID returns a random trace id.
func NewTraceID() TraceID {
	var id TraceID
	hi, lo := rand.Uint64(), rand.Uint64()
	for i := 0; i < 8; i++ {
		id[i] = byte(hi >> (8 * i))
		id[8+i] = byte(lo >> (8 * i))
	}
	if id.IsZero() {
		id[0] = 1 // one chance in 2^128; keep the zero value invalid anyway
	}
	return id
}

// IsZero reports whether the id is the invalid zero value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the id as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// ParseTraceID parses the 32-hex-digit form produced by String.
func ParseTraceID(s string) (TraceID, error) {
	var id TraceID
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(id) {
		if err == nil {
			err = hex.ErrLength
		}
		return TraceID{}, err
	}
	copy(id[:], b)
	return id, nil
}

// SpanID identifies one span within a process run.
type SpanID uint64

// String renders the id as 16 hex digits; the zero id (no parent) renders
// empty, which the JSON export omits.
func (id SpanID) String() string {
	if id == 0 {
		return ""
	}
	var b [8]byte
	for i := range b {
		b[i] = byte(uint64(id) >> (56 - 8*i))
	}
	return hex.EncodeToString(b[:])
}

// Config tunes a Tracer. The zero value enables tail capture with default
// bounds and no span export.
type Config struct {
	// Sink receives one Record per finished span. nil disables export;
	// tail capture still runs.
	Sink SpanSink
	// TailSlow bounds how many of the slowest root spans keep their full
	// span trees in memory. 0 selects 16; negative disables.
	TailSlow int
	// TailErrored bounds how many recent errored root spans keep their
	// trees. 0 selects 16; negative disables.
	TailErrored int
}

// Tracer starts spans and owns their export. A nil *Tracer is the
// disabled state: Start returns a nil span and nothing allocates.
type Tracer struct {
	sink SpanSink
	tail *tail
	ids  atomic.Uint64 // span-id counter; seeded randomly per tracer
}

// New builds a Tracer. Tail capture is always on (bounded by the config)
// so the slowest and errored requests keep full span trees even when no
// sink is attached.
func New(cfg Config) *Tracer {
	t := &Tracer{sink: cfg.Sink, tail: newTail(cfg.TailSlow, cfg.TailErrored)}
	// Random base keeps span ids from colliding across restarts in
	// concatenated JSONL files; the low bits stay a counter for cheap
	// uniqueness within the run.
	t.ids.Store(rand.Uint64() << 20)
	return t
}

// Close flushes and closes the sink, if any.
func (t *Tracer) Close() error {
	if t == nil || t.sink == nil {
		return nil
	}
	return t.sink.Close()
}

// nextSpanID hands out process-unique span ids.
func (t *Tracer) nextSpanID() SpanID { return SpanID(t.ids.Add(1)) }

// Start begins a new trace rooted at a span named stage. Returns nil on a
// nil tracer.
func (t *Tracer) Start(stage string) *Span {
	return t.StartTrace(NewTraceID(), stage)
}

// StartTrace begins a new trace with a caller-chosen id (the server picks
// the id before starting the span so the response header can carry it
// even when tracing is disabled).
func (t *Tracer) StartTrace(id TraceID, stage string) *Span {
	if t == nil {
		return nil
	}
	return &Span{
		tracer: t,
		trace:  id,
		id:     t.nextSpanID(),
		stage:  stage,
		start:  time.Now(),
	}
}

// attrKind discriminates attribute values without boxing them.
type attrKind uint8

const (
	attrStr attrKind = iota
	attrInt
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key  string
	kind attrKind
	s    string
	i    int64
}

// Value returns the attribute value as the JSON-facing any.
func (a Attr) Value() any {
	switch a.kind {
	case attrInt:
		return a.i
	default:
		return a.s
	}
}

// Span is one named stage of a trace. Spans form a tree: Child spans hang
// off their parent until the root ends, which is what lets tail capture
// retain whole trees. All methods are allocation-free no-ops on a nil
// receiver.
type Span struct {
	tracer *Tracer
	trace  TraceID
	parent SpanID
	id     SpanID
	stage  string
	start  time.Time

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	errMsg   string
	attrs    []Attr
	children []*Span
}

// TraceID returns the span's trace id; the zero id on a nil span.
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.trace
}

// Child starts a sub-span named stage. Returns nil on a nil receiver, so
// instrumentation chains through disabled tracing for free.
func (s *Span) Child(stage string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{
		tracer: s.tracer,
		trace:  s.trace,
		parent: s.id,
		id:     s.tracer.nextSpanID(),
		stage:  stage,
		start:  time.Now(),
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetAttr annotates the span with a string value.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, kind: attrStr, s: value})
	s.mu.Unlock()
}

// SetAttrInt annotates the span with an integer value.
func (s *Span) SetAttrInt(key string, value int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, kind: attrInt, i: value})
	s.mu.Unlock()
}

// SetError marks the span (and so its trace, for tail capture) failed.
// A nil error or receiver is a no-op.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.errMsg = err.Error()
	s.mu.Unlock()
}

// End stamps the duration, emits the span's Record to the sink, and — for
// root spans — offers the finished tree to tail capture. Double End is a
// no-op, so deferred Ends compose with early explicit ones.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	s.mu.Unlock()

	if s.tracer.sink != nil {
		s.tracer.sink.Emit(s.record())
	}
	if s.parent == 0 {
		s.tracer.tail.offer(s)
	}
}

// record snapshots the span as its flat export shape.
func (s *Span) record() Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := Record{
		Trace:   s.trace.String(),
		Span:    s.id.String(),
		Parent:  s.parent.String(),
		Stage:   s.stage,
		StartNS: s.start.UnixNano(),
		DurNS:   int64(s.dur),
		Err:     s.errMsg,
	}
	if len(s.attrs) > 0 {
		rec.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			rec.Attrs[a.Key] = a.Value()
		}
	}
	return rec
}

// errored reports whether the span or any descendant recorded an error.
func (s *Span) errored() bool {
	s.mu.Lock()
	failed := s.errMsg != ""
	kids := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	if failed {
		return true
	}
	for _, c := range kids {
		if c.errored() {
			return true
		}
	}
	return false
}

// duration returns the recorded duration (zero until End).
func (s *Span) duration() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// tree snapshots the span and its descendants as nested records.
func (s *Span) tree() *TreeNode {
	n := &TreeNode{Record: s.record()}
	s.mu.Lock()
	kids := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range kids {
		n.Children = append(n.Children, c.tree())
	}
	return n
}

// ctxKey keys the active span in a context.Context.
type ctxKey struct{}

// ContextWith returns ctx carrying s. A nil span returns ctx unchanged,
// so disabled tracing adds no context allocation.
func ContextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the active span, or nil when ctx carries none —
// and every method on that nil span no-ops, so callers never check.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
