// Package clb implements the Cache Line Address Lookaside Buffer: a small
// fully-associative, LRU-replaced cache of Line Address Table entries,
// structurally the TLB of the CCRP's compressed address translation (the
// CLB/LAT pair mirrors the TLB/page-table pair of a virtual memory
// system). The CLB is probed in parallel with every instruction cache
// access, so a hit adds no cycles even on a cache miss; only a CLB miss
// costs a LAT fetch from instruction memory.
package clb

import (
	"fmt"

	"ccrp/internal/lat"
	"ccrp/internal/metrics"
)

// Stats counts CLB probe outcomes.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// MissRate returns misses / probes.
func (s Stats) MissRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Hits+s.Misses)
}

type slot struct {
	tag   uint32 // LAT entry index
	entry lat.Entry
	used  uint64 // LRU clock
	valid bool
}

// CLB is a fully-associative buffer of LAT entries.
type CLB struct {
	slots []slot
	clock uint64
	stats Stats
}

// Counters returns reg's CLB probe hit and miss counters, so that every
// caller that sums CLB statistics reports them under the same names.
func Counters(reg *metrics.Registry) (hits, misses *metrics.Counter) {
	return reg.Counter("ccrp_clb_hits_total", "CLB probe hits"),
		reg.Counter("ccrp_clb_misses_total", "CLB probe misses")
}

// New returns a CLB with n entries (the paper evaluates 4, 8, and 16).
func New(n int) *CLB {
	if n < 1 {
		panic(fmt.Sprintf("clb: size %d must be positive", n))
	}
	return &CLB{slots: make([]slot, n)}
}

// Lookup probes for the LAT entry with the given index, updating LRU
// state and statistics.
func (c *CLB) Lookup(latIndex uint32) (lat.Entry, bool) {
	c.clock++
	for i := range c.slots {
		if c.slots[i].valid && c.slots[i].tag == latIndex {
			c.slots[i].used = c.clock
			c.stats.Hits++
			return c.slots[i].entry, true
		}
	}
	c.stats.Misses++
	return lat.Entry{}, false
}

// Insert fills the CLB with a LAT entry fetched from memory, evicting the
// least recently used slot. Inserting a tag that is already resident
// updates that slot in place — a second valid slot with the same tag
// would silently halve the effective capacity and skew the miss-rate
// experiments.
func (c *CLB) Insert(latIndex uint32, e lat.Entry) {
	c.clock++
	for i := range c.slots {
		if c.slots[i].valid && c.slots[i].tag == latIndex {
			c.slots[i].entry = e
			c.slots[i].used = c.clock
			return
		}
	}
	victim := 0
	for i := range c.slots {
		if !c.slots[i].valid {
			victim = i
			break
		}
		if c.slots[i].used < c.slots[victim].used {
			victim = i
		}
	}
	c.slots[victim] = slot{tag: latIndex, entry: e, used: c.clock, valid: true}
}

// Stats returns the probe counters.
func (c *CLB) Stats() Stats { return c.stats }
