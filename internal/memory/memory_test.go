package memory

import "testing"

func TestEPROMTiming(t *testing.T) {
	m := EPROM{}
	if m.WordArrival(0) != 3 || m.WordArrival(7) != 24 {
		t.Errorf("arrivals: %d %d", m.WordArrival(0), m.WordArrival(7))
	}
	if m.BurstCycles(8) != 24 {
		t.Errorf("burst(8) = %d", m.BurstCycles(8))
	}
	if m.PostBurstCycles() != 0 {
		t.Error("post-burst wrong")
	}
}

func TestBurstEPROMTiming(t *testing.T) {
	m := BurstEPROM{}
	if m.WordArrival(0) != 3 || m.WordArrival(1) != 4 || m.WordArrival(7) != 10 {
		t.Error("arrivals wrong")
	}
	if m.BurstCycles(8) != 10 || m.BurstCycles(1) != 3 || m.BurstCycles(0) != 0 {
		t.Error("burst wrong")
	}
}

func TestSCDRAMTiming(t *testing.T) {
	m := SCDRAM{}
	if m.WordArrival(0) != 4 || m.WordArrival(7) != 11 {
		t.Error("arrivals wrong")
	}
	if m.BurstCycles(8) != 11 || m.PostBurstCycles() != 2 {
		t.Error("burst/precharge wrong")
	}
}

// The defining relationship: a full 8-word line refill is much cheaper on
// burst memories.
func TestRelativeOrdering(t *testing.T) {
	e, b, d := EPROM{}, BurstEPROM{}, SCDRAM{}
	if !(e.BurstCycles(8) > d.BurstCycles(8) && d.BurstCycles(8) > b.BurstCycles(8)) {
		t.Errorf("burst ordering: e=%d d=%d b=%d",
			e.BurstCycles(8), d.BurstCycles(8), b.BurstCycles(8))
	}
}

// Arrival times must be consistent with burst completion and
// monotonically increasing.
func TestArrivalConsistency(t *testing.T) {
	for _, m := range Models() {
		prev := uint64(0)
		for i := 0; i < 16; i++ {
			a := m.WordArrival(i)
			if a <= prev {
				t.Errorf("%s: arrival(%d)=%d not increasing", m.Name(), i, a)
			}
			prev = a
			if got := m.BurstCycles(i + 1); got != a {
				t.Errorf("%s: burst(%d)=%d != arrival(%d)=%d", m.Name(), i+1, got, i, a)
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, want := range []string{"EPROM", "Burst EPROM", "DRAM"} {
		m, ok := ByName(want)
		if !ok || m.Name() != want {
			t.Errorf("ByName(%q) = %v, %v", want, m, ok)
		}
	}
	if _, ok := ByName("SRAM"); ok {
		t.Error("unknown model resolved")
	}
}
