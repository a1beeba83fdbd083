package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
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

// TestCacheCachesErrors: a failed build is as cached as a successful one
// — deterministic builders fail deterministically.
func TestCacheCachesErrors(t *testing.T) {
	c := NewCache()
	wantErr := errors.New("train failed")
	var builds atomic.Int64
	for i := 0; i < 3; i++ {
		_, err := Get(c, "k", func() (int, error) {
			builds.Add(1)
			return 0, wantErr
		})
		if !errors.Is(err, wantErr) {
			t.Fatalf("err = %v", err)
		}
	}
	if b := builds.Load(); b != 1 {
		t.Errorf("failing build ran %d times, want 1", b)
	}
}

// TestCacheTransientErrorsRetry: a cancelled or deadline-expired build
// failure is delivered to its waiters but not memoized — the next caller
// rebuilds. Deterministic failures stay cached.
func TestCacheTransientErrorsRetry(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"context.Canceled", context.Canceled},
		{"wrapped deadline", fmt.Errorf("store write: %w", context.DeadlineExceeded)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCache()
			builds := 0
			if _, err := Get(c, "k", func() (int, error) { builds++; return 0, tc.err }); !errors.Is(err, tc.err) {
				t.Fatalf("first Get = %v, want %v", err, tc.err)
			}
			v, err := Get(c, "k", func() (int, error) { builds++; return 7, nil })
			if err != nil || v != 7 {
				t.Fatalf("retry Get = (%d, %v), want (7, nil)", v, err)
			}
			if builds != 2 {
				t.Fatalf("build ran %d times, want 2 (transient failure retried)", builds)
			}
		})
	}

	t.Run("deterministic error stays cached", func(t *testing.T) {
		c := NewCache()
		builds := 0
		permanent := errors.New("malformed corpus")
		for i := 0; i < 3; i++ {
			if _, err := Get(c, "k", func() (int, error) { builds++; return 0, permanent }); !errors.Is(err, permanent) {
				t.Fatalf("Get = %v, want the cached permanent error", err)
			}
		}
		if builds != 1 {
			t.Fatalf("build ran %d times, want 1 (permanent failure cached)", builds)
		}
	})
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
