package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
)

// Cache is a content-addressed artifact cache with single-flight
// deduplication: the first caller of a key builds the artifact while
// concurrent callers of the same key block until that one build finishes,
// so a trained coder is never trained twice even when many sweep workers
// request it at once.
//
// Only what was built is kept. A build that fails — with an error, a
// panic, a cancelled context or an expired deadline — answers the
// callers that shared its flight and is then dropped, so the next caller
// of the key builds again and no caller can fill the cache with
// failures.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
}

type cacheEntry struct {
	done chan struct{} // closed when val/err are final
	val  any
	err  error
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*cacheEntry)}
}

// Len reports the number of cached keys (settled or in flight).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// do returns the cached artifact for key, building it with build on first
// use. A panic inside build becomes a *PanicError, so that waiting
// callers are released rather than deadlocked.
func (c *Cache) do(key string, build func() (any, error)) (any, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-e.done
		return e.val, e.err
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	func() {
		defer func() {
			if r := recover(); r != nil {
				e.err = fmt.Errorf("sweep: building %q: %w",
					key, &PanicError{Value: r})
			}
			if e.err != nil {
				c.mu.Lock()
				delete(c.entries, key)
				c.mu.Unlock()
			}
			close(e.done)
		}()
		e.val, e.err = build()
	}()
	return e.val, e.err
}

// Get returns the cached artifact of type T for key, building and caching
// it on first use. Requesting one key with two different types is a
// programming error and is reported as one.
func Get[T any](c *Cache, key string, build func() (T, error)) (T, error) {
	v, err := c.do(key, func() (any, error) { return build() })
	if err != nil {
		var zero T
		return zero, err
	}
	out, ok := v.(T)
	if !ok {
		var zero T
		return zero, fmt.Errorf("sweep: cache key %q holds %T, not %T", key, v, zero)
	}
	return out, nil
}

// Peek returns the artifact of type T that key holds, without building
// it or waiting for a build in flight.
func Peek[T any](c *Cache, key string) (out T, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil {
		select {
		case <-e.done: // a failed build leaves the map before done closes
			out, ok = e.val.(T)
		default:
		}
	}
	return out, ok
}

// Key derives a cache key from its parts. Byte slices are content-
// addressed (SHA-256), so a key built over a training corpus changes
// exactly when the corpus bytes change; strings, booleans, and numbers
// are embedded verbatim. Parts are joined unambiguously, so
// Key("a", "b") and Key("ab") differ.
func Key(parts ...any) string {
	var b strings.Builder
	for i, p := range parts {
		if i > 0 {
			b.WriteByte(0x1f) // unit separator: cannot appear in %v of the types below
		}
		switch v := p.(type) {
		case []byte:
			b.WriteString(HashBytes(v))
		case string:
			fmt.Fprintf(&b, "%q", v)
		default:
			fmt.Fprintf(&b, "%v", v)
		}
	}
	return b.String()
}

// HashBytes returns the hex SHA-256 of b, the content address used by Key
// for byte-slice parts.
func HashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
