package tracing

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
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

// SpanSink consumes finished spans; metrics.JSONLSink[Record] writes
// them as JSONL. Implementations must be safe for concurrent Emit calls:
// spans end on whatever request goroutine ran the stage.
type SpanSink interface {
	Emit(rec Record)
	Close() error
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
