package tracing

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Record is the flat JSONL export shape of one finished span. Parent is
// empty on root spans; durations and start times are nanoseconds so
// microsecond-scale stages (coder-cache hits, short line decodes) still
// attribute correctly.
type Record struct {
	Trace   string         `json:"trace"`
	Span    string         `json:"span"`
	Parent  string         `json:"parent,omitempty"`
	Stage   string         `json:"stage"`
	StartNS int64          `json:"start_ns"`
	DurNS   int64          `json:"dur_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
	Err     string         `json:"err,omitempty"`
}

// DurMS returns the span duration in milliseconds.
func (r Record) DurMS() float64 { return float64(r.DurNS) / 1e6 }

// SpanSink consumes finished spans. Implementations must be safe for
// concurrent Emit calls: unlike the single-threaded simulators behind
// metrics.EventSink, spans end on whatever request goroutine ran the
// stage.
type SpanSink interface {
	Emit(rec Record)
	Close() error
}

// JSONLSink writes one JSON object per span through a buffer, the span
// twin of metrics.JSONLSink with a mutex around every Emit and Close
// (request goroutines and sweep workers emit concurrently by design).
type JSONLSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	enc *json.Encoder
	err error
}

// NewJSONLSink wraps w in a buffered, mutex-serialized JSONL encoder. If
// w is also an io.Closer (a file), Close closes it after flushing.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriterSize(w, 1<<16)
	s := &JSONLSink{w: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit writes the record; the first write error sticks and is returned by
// Close.
func (s *JSONLSink) Emit(rec Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(rec)
}

// Close flushes the buffer and closes the underlying writer if it is a
// Closer.
func (s *JSONLSink) Close() error {
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

// ReadRecords parses a span JSONL stream (ccrp-spans' input). Blank lines
// are skipped; a malformed line fails with its line number so truncated
// files point at the damage.
func ReadRecords(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("tracing: span record on line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
