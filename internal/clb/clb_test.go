package clb

import (
	"testing"

	"ccrp/internal/lat"
)

func entry(base uint32) lat.Entry { return lat.Entry{Base: base} }

func TestHitMiss(t *testing.T) {
	c := New(4)
	if _, hit := c.Lookup(7); hit {
		t.Error("empty CLB hit")
	}
	c.Insert(7, entry(0x700))
	e, hit := c.Lookup(7)
	if !hit || e.Base != 0x700 {
		t.Errorf("lookup after insert: hit=%v base=%#x", hit, e.Base)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.MissRate() != 0.5 {
		t.Errorf("miss rate = %v", s.MissRate())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	c.Insert(1, entry(0x100))
	c.Insert(2, entry(0x200))
	c.Lookup(1) // 1 is now most recent
	c.Insert(3, entry(0x300))
	if _, hit := c.Lookup(2); hit {
		t.Error("LRU victim 2 still present")
	}
	if _, hit := c.Lookup(1); !hit {
		t.Error("recently used 1 evicted")
	}
	if _, hit := c.Lookup(3); !hit {
		t.Error("inserted 3 missing")
	}
}

func TestFillsInvalidFirst(t *testing.T) {
	c := New(3)
	c.Insert(1, entry(1))
	c.Insert(2, entry(2))
	c.Insert(3, entry(3))
	for _, tag := range []uint32{1, 2, 3} {
		if _, hit := c.Lookup(tag); !hit {
			t.Errorf("tag %d missing after fill", tag)
		}
	}
}

// TestInsertDuplicateTagUpdatesInPlace is the regression test for the
// duplicate-tag bug: re-inserting a resident LAT index must refresh that
// slot, not burn a second one. On the old code the second Insert filled
// a free slot with a duplicate tag, silently shrinking effective
// capacity, and returning the stale entry was load-order dependent.
func TestInsertDuplicateTagUpdatesInPlace(t *testing.T) {
	c := New(2)
	c.Insert(10, entry(0xA00))
	c.Insert(10, entry(0xB00))

	e, hit := c.Lookup(10)
	if !hit {
		t.Fatal("resident tag missing after duplicate insert")
	}
	if e.Base != 0xB00 {
		t.Fatalf("lookup returned base %#x, want the updated %#x", e.Base, 0xB00)
	}

	// The freed capacity must actually hold a second distinct tag.
	c.Insert(11, entry(0xC00))
	if _, hit := c.Lookup(10); !hit {
		t.Error("tag 10 evicted from a CLB with capacity for both tags")
	}
	if _, hit := c.Lookup(11); !hit {
		t.Error("tag 11 missing after insert into the free slot")
	}
}

// TestInsertDuplicateRefreshesLRU: the in-place update must also count
// as a use, or the refreshed entry becomes the next eviction victim.
func TestInsertDuplicateRefreshesLRU(t *testing.T) {
	c := New(2)
	c.Insert(1, entry(0x100))
	c.Insert(2, entry(0x200))
	c.Insert(1, entry(0x110)) // refresh: 2 is now LRU
	c.Insert(3, entry(0x300))
	if _, hit := c.Lookup(2); hit {
		t.Error("LRU victim 2 still present after refresh of 1")
	}
	if e, hit := c.Lookup(1); !hit || e.Base != 0x110 {
		t.Errorf("refreshed entry: hit=%v base=%#x, want hit with base 0x110", hit, e.Base)
	}
}

func TestZeroSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestEmptyStats(t *testing.T) {
	if (Stats{}).MissRate() != 0 {
		t.Error("empty miss rate not 0")
	}
}

func BenchmarkLookupHit16(b *testing.B) {
	c := New(16)
	for i := uint32(0); i < 16; i++ {
		c.Insert(i, entry(i))
	}
	for i := 0; i < b.N; i++ {
		c.Lookup(uint32(i & 15))
	}
}
