package cache

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestGeometryValidation(t *testing.T) {
	bad := [][2]int{{0, 32}, {256, 0}, {300, 32}, {256, 33}, {16, 32}}
	for _, g := range bad {
		if _, err := New(g[0], g[1]); err == nil {
			t.Errorf("geometry %v accepted", g)
		}
	}
	c, err := New(1024, 32)
	if err != nil {
		t.Fatal(err)
	}
	if c.Lines() != 32 {
		t.Errorf("lines=%d", c.Lines())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(0,0) did not panic")
		}
	}()
	MustNew(0, 0)
}

func TestHitMissSequence(t *testing.T) {
	c := MustNew(256, 32) // 8 lines
	if c.Access(0x00) {
		t.Error("cold access hit")
	}
	if !c.Access(0x04) || !c.Access(0x1F) {
		t.Error("same-line access missed")
	}
	if c.Access(0x20) {
		t.Error("next line hit cold")
	}
	// 0x100 conflicts with 0x000 in an 8-line direct-mapped cache.
	if c.Access(0x100) {
		t.Error("conflicting line hit")
	}
	if c.Access(0x00) {
		t.Error("evicted line still hit")
	}
	s := c.Stats()
	if s.Accesses != 6 || s.Misses != 4 {
		t.Errorf("stats = %+v", s)
	}
	if s.MissRate() != 4.0/6.0 {
		t.Errorf("miss rate = %v", s.MissRate())
	}
}

// Property: a loop fitting entirely in the cache has only compulsory
// misses; a loop twice the cache size in a direct-mapped cache misses on
// every line access.
func TestLoopBehaviour(t *testing.T) {
	c := MustNew(1024, 32)
	for pass := 0; pass < 10; pass++ {
		for addr := uint32(0); addr < 1024; addr += 4 {
			c.Access(addr)
		}
	}
	if got := c.Stats().Misses; got != 32 {
		t.Errorf("fitting loop misses = %d, want 32 compulsory", got)
	}
	c = MustNew(1024, 32)
	for pass := 0; pass < 4; pass++ {
		for addr := uint32(0); addr < 2048; addr += 32 {
			c.Access(addr)
		}
	}
	if got := c.Stats().Misses; got != 4*64 {
		t.Errorf("thrashing loop misses = %d, want %d", got, 4*64)
	}
}

// Property: miss count never exceeds access count, and replaying any
// trace twice back-to-back cannot increase the miss rate.
func TestMissesBounded(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := MustNew(512, 32)
		for _, a := range addrs {
			c.Access(a % (1 << 24))
		}
		s1 := c.Stats()
		return s1.Misses <= s1.Accesses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAccess(b *testing.B) {
	c := MustNew(4096, 32)
	for i := 0; i < b.N; i++ {
		c.Access(uint32(i*4) % (1 << 20))
	}
}

func TestAssocGeometry(t *testing.T) {
	bad := [][3]int{{256, 32, 0}, {256, 32, 16}, {256, 32, 3}, {64, 32, 4}}
	for _, g := range bad {
		if _, err := NewAssoc(g[0], g[1], g[2]); err == nil {
			t.Errorf("geometry %v accepted", g)
		}
	}
	c, err := NewAssoc(1024, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Lines() != 32 {
		t.Errorf("lines=%d", c.Lines())
	}
}

func TestTwoWayBeatsDirectMappedOnPingPong(t *testing.T) {
	// Two lines that conflict in a direct-mapped cache but coexist in a
	// 2-way cache.
	dm := MustNew(256, 32)
	tw, err := NewAssoc(256, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		dm.Access(0x000)
		dm.Access(0x100) // same index in 8-line direct-mapped
		tw.Access(0x000)
		tw.Access(0x100)
	}
	if dm.Stats().Misses != 200 {
		t.Errorf("direct-mapped misses = %d, want 200 (ping-pong)", dm.Stats().Misses)
	}
	if tw.Stats().Misses != 2 {
		t.Errorf("2-way misses = %d, want 2 compulsory", tw.Stats().Misses)
	}
}

func TestLRUWithinSet(t *testing.T) {
	c, err := NewAssoc(128, 32, 2) // 2 sets x 2 ways
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0x000) // set 0
	c.Access(0x080) // set 0, second way
	c.Access(0x000) // refresh first
	c.Access(0x100) // set 0, evicts 0x080 (LRU)
	if !c.Access(0x000) {
		t.Error("MRU line evicted")
	}
	if c.Access(0x080) {
		t.Error("LRU line survived eviction")
	}
}

func TestFullyAssociative(t *testing.T) {
	c, err := NewAssoc(256, 32, 8) // one set, 8 ways
	if err != nil {
		t.Fatal(err)
	}
	for a := uint32(0); a < 8*32; a += 32 {
		c.Access(a)
	}
	for a := uint32(0); a < 8*32; a += 32 {
		if !c.Access(a) {
			t.Errorf("fully associative evicted %#x within capacity", a)
		}
	}
}

// Property: for the same trace, a 2-way cache of equal size never has a
// much worse miss count than direct mapped on looping patterns (LRU can
// lose on adversarial patterns, but compulsory misses always match).
func TestAssocCompulsoryMissesMatch(t *testing.T) {
	dm := MustNew(512, 32)
	tw, _ := NewAssoc(512, 32, 2)
	addrs := []uint32{0, 32, 64, 96, 128, 4096, 8192, 12288}
	for _, a := range addrs {
		dm.Access(a)
		tw.Access(a)
	}
	if dm.Stats().Misses != uint64(len(addrs)) || tw.Stats().Misses != uint64(len(addrs)) {
		t.Errorf("compulsory misses differ: dm=%d tw=%d", dm.Stats().Misses, tw.Stats().Misses)
	}
}

// TestAccessRunMatchesPerFetch: replaying runs of sequential fetches
// inside one line with AccessRun leaves the cache, its LRU clocks and its
// counters exactly as replaying every fetch with Access, at every
// associativity.
func TestAccessRunMatchesPerFetch(t *testing.T) {
	f := func(words []uint16, lens []uint8) bool {
		for _, ways := range []int{1, 2, 8} {
			byRun, _ := NewAssoc(256, 32, ways)
			byFetch, _ := NewAssoc(256, 32, ways)
			for i, w := range words {
				pc := uint32(w) * 4 % 4096
				n := uint64(1)
				if i < len(lens) {
					n += uint64(lens[i]) % uint64(8-pc%32/4)
				}
				hit := byRun.AccessRun(pc, n)
				if byFetch.Access(pc) != hit {
					return false
				}
				for k := uint64(1); k < n; k++ {
					if !byFetch.Access(pc + uint32(k)*4) {
						return false
					}
				}
			}
			if !reflect.DeepEqual(byRun, byFetch) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
