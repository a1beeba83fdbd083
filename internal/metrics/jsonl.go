package metrics

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// JSONLSink writes one JSON object per value through a buffer; a
// tracing.SpanSink is a JSONLSink[tracing.Record]. A mutex serializes
// Emit and Close, since spans end on whatever goroutine ran their stage;
// Close may be called more than once.
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
