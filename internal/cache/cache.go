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
	lineBytes int
	stats     Stats
	im        *instruments // nil when metrics are disabled
}

// instruments are the optional per-geometry observability hooks; the
// single c.im nil test keeps the disabled hot path free of them.
type instruments struct {
	accesses *metrics.Counter
	hits     *metrics.Counter
	setMiss  []*metrics.Counter // one per set
	wayFill  []*metrics.Counter // one per way, counts victim installs
}

// Instrument registers this cache's counters on reg and enables
// per-access accounting: total accesses/hits, per-set miss counters, and
// per-way fill (victim install) counters. A nil registry disables
// instrumentation again.
func (c *Cache) Instrument(reg *metrics.Registry) {
	if reg == nil {
		c.im = nil
		return
	}
	sets := len(c.tags) / c.ways
	accesses, hits := Counters(reg)
	im := &instruments{
		accesses: accesses,
		hits:     hits,
		setMiss:  make([]*metrics.Counter, sets),
		wayFill:  make([]*metrics.Counter, c.ways),
	}
	setVec := reg.CounterVec("ccrp_cache_set_misses_total", "instruction cache misses by set index", "set")
	for i := range im.setMiss {
		im.setMiss[i] = setVec.WithInt(i)
	}
	wayVec := reg.CounterVec("ccrp_cache_way_fills_total", "miss refill installs by victim way", "way")
	for i := range im.wayFill {
		im.wayFill[i] = wayVec.WithInt(i)
	}
	c.im = im
}

// Counters returns reg's access and hit counters, the totals Instrument
// keeps, so a caller that sums cache statistics itself reports them
// under the same names.
func Counters(reg *metrics.Registry) (accesses, hits *metrics.Counter) {
	return reg.Counter("ccrp_cache_accesses_total", "instruction cache accesses"),
		reg.Counter("ccrp_cache_hits_total", "instruction cache hits")
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
		tags:      make([]uint32, n),
		valid:     make([]bool, n),
		used:      make([]uint64, n),
		ways:      ways,
		idxMask:   uint32(sets - 1),
		lineBytes: lineBytes,
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

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.lineBytes }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint32) uint32 {
	return addr &^ uint32(c.lineBytes-1)
}

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

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
			if c.im != nil {
				c.im.accesses.Add(n)
				c.im.hits.Add(n)
			}
			return true
		}
		if !c.valid[i] {
			victim = i
		} else if c.valid[victim] && c.used[i] < c.used[victim] {
			victim = i
		}
	}
	c.stats.Misses++
	if c.im != nil {
		c.im.accesses.Add(n)
		c.im.hits.Add(n - 1)
		c.im.setMiss[int(line&c.idxMask)].Inc()
		c.im.wayFill[victim-set].Inc()
	}
	c.valid[victim] = true
	c.tags[victim] = line
	c.used[victim] = c.clock
	return false
}

// Set returns the set index addr maps to (for event emission).
func (c *Cache) Set(addr uint32) int {
	return int((addr >> c.lineShift) & c.idxMask)
}

// Stats returns the access counters.
func (c *Cache) Stats() Stats { return c.stats }

// Reset invalidates the cache and clears statistics, modeling cold start
// (the paper deliberately includes compulsory start-up misses).
func (c *Cache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.used[i] = 0
	}
	c.clock = 0
	c.stats = Stats{}
}
