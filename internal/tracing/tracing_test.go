package tracing

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ccrp/internal/metrics"
)

// TestDisabledSpansAllocFree is the contract the instrumented request
// paths rely on: a nil tracer starts nil spans whose methods neither
// allocate nor panic, mirroring metrics.TestDisabledInstrumentsAllocFree.
func TestDisabledSpansAllocFree(t *testing.T) {
	var tr *Tracer // disabled
	ctx := context.Background()
	if sp := tr.Start("request"); sp != nil {
		t.Fatal("nil tracer must start nil spans")
	}
	if n := testing.AllocsPerRun(1000, func() {
		sp := tr.Start("request")
		child := sp.Child("stage")
		child.SetAttr("k", "v")
		child.SetAttrInt("n", 7)
		child.SetError(errDisabled)
		child.End()
		sp.End()
		if ContextWith(ctx, sp) != ctx {
			t.Fatal("nil span must not wrap the context")
		}
		FromContext(ctx).Child("again").End()
	}); n != 0 {
		t.Errorf("disabled spans allocated %v times per run, want 0", n)
	}
	if tr.TailSnapshot().Slow == nil {
		t.Error("nil tracer snapshot must be empty, not nil slices")
	}
	if err := tr.Close(); err != nil {
		t.Errorf("nil tracer Close: %v", err)
	}
}

var errDisabled = errors.New("boom")

func TestTraceIDRoundTrip(t *testing.T) {
	id := NewTraceID()
	if id.IsZero() {
		t.Fatal("NewTraceID returned the zero id")
	}
	s := id.String()
	if len(s) != 32 {
		t.Fatalf("trace id %q is not 32 hex digits", s)
	}
	back, err := ParseTraceID(s)
	if err != nil || back != id {
		t.Fatalf("ParseTraceID(%q) = %v, %v; want original", s, back, err)
	}
	if _, err := ParseTraceID("zz"); err == nil {
		t.Error("ParseTraceID must reject non-hex input")
	}
	if NewTraceID() == id {
		t.Error("consecutive trace ids collided")
	}
}

func TestSpanTreeEmission(t *testing.T) {
	var buf bytes.Buffer
	sink := metrics.NewJSONLSink[Record](&buf)
	tr := New(Config{Sink: sink})

	root := tr.Start("request")
	root.SetAttr("route", "/v1/compress")
	dec := root.Child("decode_body")
	dec.SetAttrInt("bytes", 128)
	dec.End()
	cmp := root.Child("compress")
	cmp.SetError(errors.New("bad line"))
	cmp.End()
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("emitted %d records, want 3", len(recs))
	}
	// Children emit before the root (End order), roots last.
	byStage := map[string]Record{}
	for _, r := range recs {
		byStage[r.Stage] = r
		if r.Trace != root.TraceID().String() {
			t.Errorf("span %q trace = %q, want %q", r.Stage, r.Trace, root.TraceID())
		}
	}
	rr := byStage["request"]
	if rr.Parent != "" {
		t.Errorf("root has parent %q", rr.Parent)
	}
	if rr.Attrs["route"] != "/v1/compress" {
		t.Errorf("root attrs = %v", rr.Attrs)
	}
	if byStage["decode_body"].Parent != rr.Span {
		t.Errorf("child parent = %q, want root %q", byStage["decode_body"].Parent, rr.Span)
	}
	// JSON numbers decode as float64.
	if v, ok := byStage["decode_body"].Attrs["bytes"].(float64); !ok || v != 128 {
		t.Errorf("int attr = %v", byStage["decode_body"].Attrs["bytes"])
	}
	if byStage["compress"].Err != "bad line" {
		t.Errorf("errored span Err = %q", byStage["compress"].Err)
	}
	if rr.DurNS < byStage["decode_body"].DurNS {
		t.Error("root duration shorter than its child")
	}
}

func TestDoubleEndIsIdempotent(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{Sink: metrics.NewJSONLSink[Record](&buf)})
	sp := tr.Start("request")
	sp.End()
	sp.End()
	tr.Close()
	recs, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("double End emitted %d records, want 1", len(recs))
	}
}

func TestContextPropagation(t *testing.T) {
	tr := New(Config{})
	sp := tr.Start("request")
	ctx := ContextWith(context.Background(), sp)
	if got := FromContext(ctx); got != sp {
		t.Fatalf("FromContext = %v, want the stored span", got)
	}
	child := FromContext(ctx).Child("stage")
	if child.TraceID() != sp.TraceID() {
		t.Error("child did not inherit the trace id")
	}
	if FromContext(context.Background()) != nil {
		t.Error("empty context must yield a nil span")
	}
	//lint:ignore SA1012 nil-tolerance is part of the API contract
	if FromContext(nil) != nil {
		t.Error("nil context must yield a nil span")
	}
}

// TestTailCapture: the slowest N roots and every errored root keep full
// trees, bounded, sorted, and available with no sink attached.
func TestTailCapture(t *testing.T) {
	tr := New(Config{TailSlow: 2, TailErrored: 2})
	mkRoot := func(d time.Duration, fail bool) {
		sp := tr.Start("request")
		child := sp.Child("stage")
		if fail {
			child.SetError(errors.New("kaboom"))
		}
		child.End()
		// Backdate the start instead of sleeping so the test is fast and
		// exact about ordering.
		sp.start = sp.start.Add(-d)
		sp.End()
	}
	mkRoot(10*time.Millisecond, false)
	mkRoot(30*time.Millisecond, false)
	mkRoot(20*time.Millisecond, false)
	mkRoot(1*time.Millisecond, true)
	mkRoot(2*time.Millisecond, true)
	mkRoot(3*time.Millisecond, true)

	snap := tr.TailSnapshot()
	if len(snap.Slow) != 2 {
		t.Fatalf("retained %d slow trees, want 2", len(snap.Slow))
	}
	if snap.Slow[0].DurNS < snap.Slow[1].DurNS {
		t.Error("slow trees not sorted descending")
	}
	if snap.Slow[0].DurNS < int64(30*time.Millisecond) {
		t.Errorf("slowest retained = %d ns, want the 30ms root", snap.Slow[0].DurNS)
	}
	if len(snap.Slow[0].Children) != 1 || snap.Slow[0].Children[0].Stage != "stage" {
		t.Error("tail capture dropped the span tree")
	}
	if len(snap.Errored) != 2 {
		t.Fatalf("retained %d errored trees, want 2 (bounded ring)", len(snap.Errored))
	}
	if snap.Errored[0].Children[0].Err != "kaboom" {
		t.Error("errored tree lost its error")
	}
}

// TestConcurrentSpanSink hammers one tracer and sink from many goroutines
// (run under -race in CI): full trees per goroutine, shared JSONL sink,
// concurrent tail capture.
func TestConcurrentSpanSink(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{Sink: metrics.NewJSONLSink[Record](&buf)})
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := tr.Start("request")
				sp.SetAttrInt("worker", int64(w))
				c1 := sp.Child("decode_body")
				c1.End()
				c2 := sp.Child("compress")
				if i%7 == 0 {
					c2.SetError(fmt.Errorf("worker %d op %d", w, i))
				}
				c2.End()
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := workers * perWorker * 3; len(recs) != want {
		t.Fatalf("emitted %d records, want %d", len(recs), want)
	}
	seen := map[string]bool{}
	for _, r := range recs {
		if seen[r.Span] {
			t.Fatalf("duplicate span id %q", r.Span)
		}
		seen[r.Span] = true
	}
	snap := tr.TailSnapshot()
	if len(snap.Slow) != DefaultTailSlow {
		t.Errorf("tail retained %d slow trees, want %d", len(snap.Slow), DefaultTailSlow)
	}
	if len(snap.Errored) != DefaultTailErrored {
		t.Errorf("tail retained %d errored trees, want %d", len(snap.Errored), DefaultTailErrored)
	}
}

func TestReadRecordsRejectsGarbage(t *testing.T) {
	_, err := ReadRecords(strings.NewReader("{\"trace\":\"a\"}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want a line-2 parse failure", err)
	}
}
