// Package sweep is the parallel experiment runner behind the benchmark
// harness: it fans the points of a parameter sweep out across a bounded
// worker pool with deterministic result ordering (results are merged by
// point index, never by arrival), per-point panic recovery, and
// cancellation via context.Context. A point's only observability is its
// tracing span; a sweep's metrics are sums over its results, which the
// caller adds up in point order once Map returns, so they read the same
// at any worker count.
//
// The package also provides a content-addressed single-flight artifact
// cache (cache.go): an expensive artifact — a Huffman code, a CodePack
// dictionary, a compressed ROM image — is built once per key however
// many sweep points or workers need it, and a failed build is answered
// and dropped, never kept. Peek reads the cache without building.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"ccrp/internal/metrics"
	"ccrp/internal/tracing"
)

// Engine configures a worker pool for sweep execution. The zero value
// (and a nil *Engine) runs points sequentially with no observability,
// preserving the pre-engine behavior of the experiment harness.
type Engine struct {
	// Workers bounds the number of concurrent points. Zero or negative
	// selects runtime.NumCPU(); 1 runs the sweep sequentially on the
	// calling goroutine.
	Workers int

	// Registry, when set, receives the totals of every sweep run on the
	// engine. Map does not read it: the experiments package adds each
	// sweep's totals once its Map has returned, on the calling goroutine
	// and in point order.
	Registry *metrics.Registry

	// Tracer, when set, roots one sweep_point span per point; points get
	// it as their span argument and hang their train/build/run child
	// stages off it. The tracer's span sink is already concurrency-safe,
	// so workers share it directly.
	Tracer *tracing.Tracer
}

// workerCount resolves the pool size for an n-point sweep.
func (e *Engine) workerCount(n int) int {
	w := 1
	if e != nil {
		w = e.Workers
		if w <= 0 {
			w = runtime.NumCPU()
		}
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// PanicError reports a sweep point whose function panicked. The panic is
// confined to that point: the rest of the sweep still runs, and the
// engine returns this error instead of crashing the process.
type PanicError struct {
	Point int    // index of the failed point
	Value any    // the recovered panic value
	Stack []byte // stack of the panicking goroutine
}

// Error summarizes the panic without the stack; use Unwrap-style field
// access for the full trace.
func (e *PanicError) Error() string {
	return fmt.Sprintf("point %d panicked: %v", e.Point, e.Value)
}

// Stage names for the spans a sweep emits: the per-point root and the
// child stages experiment points conventionally hang off it. They mirror
// the server's request stages so ccrp-spans reads both streams with one
// vocabulary.
const (
	StagePoint = "sweep_point" // root span of one sweep point
	StageTrain = "train"       // coder/code training
	StageBuild = "build"       // ROM compression
	StageRun   = "run"         // simulator execution
)

// Map runs fn for every index in [0, n) across the engine's worker pool
// and returns the results in index order, regardless of completion order.
// fn gets the point's sweep_point span, nil when the engine has no Tracer.
//
// Every point runs exactly once unless ctx is cancelled (points not yet
// started are skipped; points in flight finish). A point that returns an
// error or panics does not stop the other points; after the sweep, Map
// returns the full result slice together with the failure of the
// lowest-indexed failed point (so the reported error is deterministic
// under any worker count). A ctx cancellation is reported as ctx.Err()
// when no point failed first.
func Map[T any](ctx context.Context, e *Engine, n int, fn func(ctx context.Context, i int, sp *tracing.Span) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	errs := make([]error, n)
	workers := e.workerCount(n)

	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				sp := e.tracer().Start(StagePoint)
				sp.SetAttrInt("point", int64(i))
				results[i], errs[i] = runPoint(ctx, i, sp, fn)
				if errs[i] != nil {
					sp.SetError(errs[i])
				}
				sp.End()
			}
		}()
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("sweep: point %d of %d: %w", i, n, err)
		}
	}
	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, nil
}

// runPoint executes one point with panic confinement.
func runPoint[T any](ctx context.Context, i int, sp *tracing.Span, fn func(ctx context.Context, i int, sp *tracing.Span) (T, error)) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Point: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i, sp)
}

// tracer returns the engine's tracer, nil-safe.
func (e *Engine) tracer() *tracing.Tracer {
	if e == nil {
		return nil
	}
	return e.Tracer
}
