package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ccrp/internal/metrics"
	"ccrp/internal/tracing"
)

// TestMapOrdersResultsByIndex: results come back in index order even when
// completion order is reversed.
func TestMapOrdersResultsByIndex(t *testing.T) {
	e := &Engine{Workers: 8}
	n := 16
	out, err := Map(context.Background(), e, n, func(_ context.Context, i int, _ *tracing.Span) (int, error) {
		time.Sleep(time.Duration(n-i) * time.Millisecond) // later indices finish first
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Errorf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestMapSequentialFallback: a nil engine and -j 1 run on the calling
// goroutine count's worth of workers and still produce ordered output.
func TestMapSequentialFallback(t *testing.T) {
	for _, e := range []*Engine{nil, {Workers: 1}} {
		out, err := Map(context.Background(), e, 5, func(_ context.Context, i int, _ *tracing.Span) (int, error) {
			return i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i {
				t.Errorf("out[%d] = %d", i, v)
			}
		}
	}
}

// TestMapBoundsConcurrency: no more than Workers points run at once.
func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	_, err := Map(context.Background(), &Engine{Workers: workers}, 24,
		func(_ context.Context, i int, _ *tracing.Span) (int, error) {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return 0, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

// TestMapPanicConfined: a panicking point becomes that point's error;
// every other point still runs.
func TestMapPanicConfined(t *testing.T) {
	var ran atomic.Int64
	n := 10
	out, err := Map(context.Background(), &Engine{Workers: 4}, n,
		func(_ context.Context, i int, _ *tracing.Span) (int, error) {
			if i == 3 {
				panic("boom")
			}
			ran.Add(1)
			return i, nil
		})
	if err == nil {
		t.Fatal("want panic error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Point != 3 || fmt.Sprint(pe.Value) != "boom" {
		t.Fatalf("err = %v, want PanicError{Point: 3, Value: boom}", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack")
	}
	if got := ran.Load(); got != int64(n-1) {
		t.Errorf("%d points ran, want %d (panic must not kill the sweep)", got, n-1)
	}
	if out[4] != 4 {
		t.Errorf("out[4] = %d, want 4", out[4])
	}
}

// TestMapReportsLowestIndexError: with several failed points the reported
// error is the lowest-indexed one, making the error deterministic under
// any worker count.
func TestMapReportsLowestIndexError(t *testing.T) {
	wantErr := errors.New("bad point")
	_, err := Map(context.Background(), &Engine{Workers: 8}, 12,
		func(_ context.Context, i int, _ *tracing.Span) (int, error) {
			if i == 7 || i == 2 || i == 11 {
				return 0, fmt.Errorf("%w %d", wantErr, i)
			}
			return i, nil
		})
	if err == nil || !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	want := "sweep: point 2 of 12"
	if got := err.Error(); len(got) < len(want) || got[:len(want)] != want {
		t.Errorf("err = %q, want prefix %q", got, want)
	}
}

// TestMapCancellation: cancelling the context stops unstarted points and
// surfaces ctx.Err.
func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	n := 100
	_, err := Map(ctx, &Engine{Workers: 2}, n,
		func(ctx context.Context, i int, _ *tracing.Span) (int, error) {
			if started.Add(1) == 4 {
				cancel()
			}
			return i, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s := started.Load(); s >= int64(n) {
		t.Errorf("all %d points started despite cancellation", s)
	}
}

// TestMapSpans: with a tracer each point gets its own sweep_point span,
// tagged with its index and, for a failed point, its error; without one
// a point gets a nil span.
func TestMapSpans(t *testing.T) {
	var buf bytes.Buffer
	tr := tracing.New(tracing.Config{Sink: metrics.NewJSONLSink[tracing.Record](&buf)})
	n := 20
	_, err := Map(context.Background(), &Engine{Workers: 4, Tracer: tr}, n,
		func(_ context.Context, i int, sp *tracing.Span) (int, error) {
			if sp == nil {
				t.Error("point got no span despite a tracer")
			}
			sp.Child(StageRun).End()
			if i == 5 {
				return 0, errors.New("bad point")
			}
			return i, nil
		})
	if err == nil {
		t.Fatal("want point 5's error")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := tracing.ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	points := map[float64]tracing.Record{}
	for _, r := range recs {
		if r.Stage == StagePoint {
			points[r.Attrs["point"].(float64)] = r
		}
	}
	if len(recs) != 2*n || len(points) != n {
		t.Fatalf("%d records, %d distinct points; want %d and %d", len(recs), len(points), 2*n, n)
	}
	for i, r := range points {
		if failed := r.Err != ""; failed != (i == 5) {
			t.Errorf("point %v: err %q", i, r.Err)
		}
	}

	_, err = Map(context.Background(), &Engine{Workers: 2}, 3,
		func(_ context.Context, i int, sp *tracing.Span) (int, error) {
			if sp != nil {
				t.Error("point got a span without a tracer")
			}
			return i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWorkerCount pins the pool-size resolution rules.
func TestWorkerCount(t *testing.T) {
	if got := (*Engine)(nil).workerCount(10); got != 1 {
		t.Errorf("nil engine workers = %d, want 1", got)
	}
	if got := (&Engine{}).workerCount(1000); got != runtime.NumCPU() {
		t.Errorf("default workers = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := (&Engine{Workers: 64}).workerCount(3); got != 3 {
		t.Errorf("workers capped = %d, want 3", got)
	}
}

// TestMapEmpty: a zero-point sweep returns immediately.
func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), &Engine{Workers: 4}, 0,
		func(_ context.Context, i int, _ *tracing.Span) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("out = %v, err = %v", out, err)
	}
}
