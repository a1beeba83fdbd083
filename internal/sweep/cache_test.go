package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCacheSingleFlight: many concurrent requests for one key run the
// build exactly once and all observe the same artifact.
func TestCacheSingleFlight(t *testing.T) {
	c := NewCache()
	var builds atomic.Int64
	var wg sync.WaitGroup
	results := make([]*int, 64)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, err := Get(c, "the-key", func() (*int, error) {
				builds.Add(1)
				n := 42
				return &n, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = v
		}(g)
	}
	wg.Wait()
	if b := builds.Load(); b != 1 {
		t.Errorf("build ran %d times, want 1", b)
	}
	for g := 1; g < len(results); g++ {
		if results[g] != results[0] {
			t.Fatal("callers observed different artifact instances")
		}
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d keys, want 1", c.Len())
	}
}

// TestCacheDistinctKeys: different keys build independently.
func TestCacheDistinctKeys(t *testing.T) {
	c := NewCache()
	var builds atomic.Int64
	for _, key := range []string{"a", "b", "a", "b"} {
		if _, err := Get(c, key, func() (string, error) {
			builds.Add(1)
			return key, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if b := builds.Load(); b != 2 {
		t.Errorf("builds = %d, want 2", b)
	}
}

// failFlight has n concurrent callers Get key from c through one build
// that fails with err, and fails t unless every caller got err and fewer
// builds ran than there were callers. As in x/sync's singleflight tests,
// the callers get a moment to join the flight before the build returns;
// one that comes later finds the failure dropped and builds on its own,
// so sharing is required, not that every caller shared.
func failFlight(t *testing.T, c *Cache, key string, err error, n int) {
	t.Helper()
	var builds, started atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, n)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			started.Add(1)
			_, errs[g] = Get(c, key, func() (int, error) {
				builds.Add(1)
				<-release
				return 0, err
			})
		}(g)
	}
	for started.Load() != int64(n) {
		runtime.Gosched()
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	for g, got := range errs {
		if !errors.Is(got, err) {
			t.Fatalf("caller %d: err = %v, want %v", g, got, err)
		}
	}
	if b := builds.Load(); b >= int64(n) {
		t.Fatalf("%d callers ran %d builds: none shared a flight", n, b)
	}
}

// TestCacheCachesErrors: a failed build's error is cached for its flight
// and no longer. Concurrent callers of one failing build share that build
// and its error; then the cache holds nothing, Peek finds nothing, and
// the next call builds again.
func TestCacheCachesErrors(t *testing.T) {
	c := NewCache()
	failFlight(t, c, "k", errors.New("train failed"), 8)
	if n := c.Len(); n != 0 {
		t.Fatalf("cache holds %d keys after a failed build, want 0", n)
	}
	if _, ok := Peek[int](c, "k"); ok {
		t.Fatal("Peek found a failed build")
	}
	builds := 0
	v, err := Get(c, "k", func() (int, error) { builds++; return 7, nil })
	if err != nil || v != 7 || builds != 1 {
		t.Fatalf("next Get = (%d, %v) after %d builds, want (7, nil) from one build", v, err, builds)
	}
}

// TestCachePeek: Peek returns a finished artifact of the asked type and
// never builds, waits for a build in flight or finds a failed one.
func TestCachePeek(t *testing.T) {
	c := NewCache()
	if _, ok := Peek[int](c, "k"); ok {
		t.Fatal("Peek found an absent key")
	}
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		Get(c, "k", func() (int, error) { <-release; return 7, nil })
	}()
	for c.Len() == 0 {
		runtime.Gosched()
	}
	if _, ok := Peek[int](c, "k"); ok {
		t.Fatal("Peek found a build in flight")
	}
	close(release)
	<-done
	if v, ok := Peek[int](c, "k"); !ok || v != 7 {
		t.Fatalf("Peek = (%d, %v), want (7, true)", v, ok)
	}
	if _, ok := Peek[string](c, "k"); ok {
		t.Fatal("Peek found an int as a string")
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d keys, want 1: Peek must not build", c.Len())
	}
}

// TestCacheTransientErrorsRetry: a failed build is delivered to the
// callers that joined its flight but not memoized — the next caller
// rebuilds. A cancelled or deadline-expired build always failed so; a
// deterministic error now does too, and stays cached for its flight only.
func TestCacheTransientErrorsRetry(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"context.Canceled", context.Canceled},
		{"wrapped deadline", fmt.Errorf("store write: %w", context.DeadlineExceeded)},
		{"deterministic error stays cached", errors.New("malformed corpus")}, // for its flight only
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCache()
			failFlight(t, c, "k", tc.err, 4)
			builds := 0
			v, err := Get(c, "k", func() (int, error) { builds++; return 7, nil })
			if err != nil || v != 7 || builds != 1 {
				t.Fatalf("retry Get = (%d, %v) after %d builds, want (7, nil) from one build", v, err, builds)
			}
		})
	}
}

// TestCacheBuildPanic: a panicking build releases waiters with an error
// instead of deadlocking them, and the panic is identifiable.
func TestCacheBuildPanic(t *testing.T) {
	c := NewCache()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, errs[g] = Get(c, "k", func() (int, error) { panic("corrupt corpus") })
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		var pe *PanicError
		if err == nil || !errors.As(err, &pe) {
			t.Fatalf("caller %d: err = %v, want PanicError", g, err)
		}
	}
}

// TestCacheTypeMismatch: one key requested at two types is an error, not
// a silent corruption.
func TestCacheTypeMismatch(t *testing.T) {
	c := NewCache()
	if _, err := Get(c, "k", func() (int, error) { return 7, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := Get(c, "k", func() (string, error) { return "", nil }); err == nil ||
		!strings.Contains(err.Error(), "holds int, not string") {
		t.Fatalf("err = %v, want type mismatch", err)
	}
}

// TestKeyContentAddressing pins the Key contract: byte content decides
// equality, part boundaries are unambiguous, and every part matters.
func TestKeyContentAddressing(t *testing.T) {
	a1 := []byte("corpus bytes")
	a2 := append([]byte(nil), a1...)
	if Key("rom", a1) != Key("rom", a2) {
		t.Error("identical content produced different keys")
	}
	if Key("rom", a1) == Key("rom", []byte("corpus bytes!")) {
		t.Error("different content produced one key")
	}
	if Key("ab") == Key("a", "b") {
		t.Error("part boundaries are ambiguous")
	}
	if Key("huffman", 16, a1) == Key("huffman", 8, a1) {
		t.Error("config part ignored")
	}
	if Key("x", true) == Key("x", false) {
		t.Error("bool part ignored")
	}
}
