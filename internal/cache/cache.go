// Package cache models the on-chip direct-mapped instruction cache of the
// paper's proposed implementation: 32-byte lines, 256 to 4096 bytes total,
// single-cycle hits. The same cache organization serves both the standard
// processor and the CCRP — in-cache instructions are identical in both, so
// the two systems see the same hit/miss sequence and differ only in
// refill cost.
package cache

import (
	"fmt"

	"ccrp/internal/metrics"
)

// Stats counts cache accesses.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns misses / accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is an n-way set-associative instruction cache with LRU
// replacement; the paper's configuration is direct mapped (1 way), and
// higher associativities support the §4.3 remark that a program like
// espresso would simply be given different cache parameters at
// development time.
type Cache struct {
	tags      []uint32 // ways*sets entries, way-major within a set
	valid     []bool
	used      []uint64 // LRU clocks, parallel to tags
	clock     uint64
	ways      int
	lineShift uint
	idxMask   uint32
	stats     Stats
}

// Counters returns reg's i-cache access and hit counters, so that every
// caller that sums cache statistics reports them under the same names.
func Counters(reg *metrics.Registry) (accesses, hits *metrics.Counter) {
	return reg.Counter("ccrp_cache_accesses_total", "instruction cache accesses"),
		reg.Counter("ccrp_cache_hits_total", "instruction cache hits")
}

// SetMisses returns reg's i-cache miss counters labelled by set index.
func SetMisses(reg *metrics.Registry) *metrics.CounterVec {
	return reg.CounterVec("ccrp_cache_set_misses_total", "instruction cache misses by set index", "set")
}

// New builds a direct-mapped cache of sizeBytes with lineBytes lines.
func New(sizeBytes, lineBytes int) (*Cache, error) {
	return NewAssoc(sizeBytes, lineBytes, 1)
}

// NewAssoc builds a ways-way set-associative cache. sizeBytes and
// lineBytes must be powers of two, and the geometry must yield at least
// one set.
func NewAssoc(sizeBytes, lineBytes, ways int) (*Cache, error) {
	if sizeBytes <= 0 || lineBytes <= 0 || ways <= 0 ||
		sizeBytes&(sizeBytes-1) != 0 || lineBytes&(lineBytes-1) != 0 ||
		sizeBytes < lineBytes*ways || sizeBytes/lineBytes%ways != 0 {
		return nil, fmt.Errorf("cache: bad geometry size=%d line=%d ways=%d", sizeBytes, lineBytes, ways)
	}
	n := sizeBytes / lineBytes
	sets := n / ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	c := &Cache{
		tags:    make([]uint32, n),
		valid:   make([]bool, n),
		used:    make([]uint64, n),
		ways:    ways,
		idxMask: uint32(sets - 1),
	}
	for 1<<c.lineShift != lineBytes {
		c.lineShift++
	}
	return c, nil
}

// MustNew is New for known-good static geometry.
func MustNew(sizeBytes, lineBytes int) *Cache {
	c, err := New(sizeBytes, lineBytes)
	if err != nil {
		panic(err)
	}
	return c
}

// Lines returns the number of cache lines.
func (c *Cache) Lines() int { return len(c.tags) }

// Access simulates a fetch from addr: it returns true on a hit, and on a
// miss installs the line (the refill itself is costed by the caller).
func (c *Cache) Access(addr uint32) bool { return c.AccessRun(addr, 1) }

// AccessRun simulates n >= 1 sequential fetches inside the line holding
// addr. The first is an Access, and it reports whether that one hit; the
// other n-1 hit the line it leaves resident. Replaying a trace run by run
// leaves the lines, their LRU order and every counter exactly as
// replaying it fetch by fetch.
func (c *Cache) AccessRun(addr uint32, n uint64) bool {
	c.stats.Accesses += n
	c.clock += n
	line := addr >> c.lineShift
	set := int(line&c.idxMask) * c.ways
	victim := set
	for w := 0; w < c.ways; w++ {
		i := set + w
		if c.valid[i] && c.tags[i] == line {
			c.used[i] = c.clock
			return true
		}
		if !c.valid[i] {
			victim = i
		} else if c.valid[victim] && c.used[i] < c.used[victim] {
			victim = i
		}
	}
	c.stats.Misses++
	c.valid[victim] = true
	c.tags[victim] = line
	c.used[victim] = c.clock
	return false
}

// Set returns the index of the set that addr maps to, the label of a
// per-set miss count.
func (c *Cache) Set(addr uint32) int {
	return int((addr >> c.lineShift) & c.idxMask)
}

// Stats returns the access counters.
func (c *Cache) Stats() Stats { return c.stats }
