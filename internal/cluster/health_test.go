package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// scriptProbe returns a probe whose outcome per node is controlled by
// the test.
type scriptProbe struct {
	mu   sync.Mutex
	fail map[string]bool
}

func (p *scriptProbe) set(node string, failing bool) {
	p.mu.Lock()
	p.fail[node] = failing
	p.mu.Unlock()
}

func (p *scriptProbe) probe(_ context.Context, node string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fail[node] {
		return errors.New("scripted failure")
	}
	return nil
}

// newTestChecker builds a checker whose probe is p's script.
func newTestChecker(nodes ...string) (*checker, *scriptProbe, *[]string) {
	p := &scriptProbe{fail: map[string]bool{}}
	var transitions []string
	c := newChecker(nodes, func(node string, up bool) {
		state := "down"
		if up {
			state = "up"
		}
		transitions = append(transitions, node+"="+state)
	})
	c.probe = p.probe
	return c, p, &transitions
}

// TestCheckerStateMachine drives the full lifecycle: up at boot, down
// after failThreshold (3) consecutive probe failures, and up again only
// after recoverThreshold (2) consecutive successes.
func TestCheckerStateMachine(t *testing.T) {
	c, p, transitions := newTestChecker("a:1", "b:1")
	ctx := context.Background()

	if !c.healthy("a:1") || !c.healthy("b:1") {
		t.Fatal("nodes must start healthy")
	}
	if c.healthy("unknown:1") {
		t.Fatal("unknown node reported healthy")
	}

	p.set("a:1", true)
	c.probeRound(ctx)
	c.probeRound(ctx)
	if !c.healthy("a:1") {
		t.Fatal("a went down before failThreshold consecutive failures")
	}
	c.probeRound(ctx)
	if c.healthy("a:1") {
		t.Fatal("a still healthy after 3 consecutive probe failures")
	}
	if c.healthy("b:1") != true {
		t.Fatal("b must stay healthy while a fails")
	}
	if c.upCount() != 1 {
		t.Fatalf("upCount = %d, want 1", c.upCount())
	}

	// One good probe is not recovery; two are.
	p.set("a:1", false)
	c.probeRound(ctx)
	if c.healthy("a:1") {
		t.Fatal("a recovered after a single good probe (recoverThreshold=2)")
	}
	c.probeRound(ctx)
	if !c.healthy("a:1") {
		t.Fatal("a did not recover after 2 consecutive good probes")
	}

	want := []string{"a:1=down", "a:1=up"}
	if len(*transitions) != len(want) || (*transitions)[0] != want[0] || (*transitions)[1] != want[1] {
		t.Errorf("transitions = %v, want %v", *transitions, want)
	}
}

// TestCheckerPassiveFailures pins the fast-ejection path: forwarding
// failures count toward the down threshold without an active probe, and
// a forwarding success resets the streak — but recovery of a down node
// needs active probes, so a half-dead node cannot flap back in on one
// lucky response.
func TestCheckerPassiveFailures(t *testing.T) {
	c, p, _ := newTestChecker("a:1")
	ctx := context.Background()

	c.reportFailure("a:1", errors.New("connection refused"), false)
	c.reportFailure("a:1", errors.New("connection refused"), false)
	c.reportSuccess("a:1", false) // clears the streak
	c.reportFailure("a:1", errors.New("connection refused"), false)
	c.reportFailure("a:1", errors.New("connection refused"), false)
	if !c.healthy("a:1") {
		t.Fatal("node down after a broken failure streak")
	}
	c.reportFailure("a:1", errors.New("connection refused"), false)
	if c.healthy("a:1") {
		t.Fatal("node still up after 3 consecutive forwarding failures")
	}

	// Forward successes alone never recover a down node.
	c.reportSuccess("a:1", false)
	c.reportSuccess("a:1", false)
	c.reportSuccess("a:1", false)
	if c.healthy("a:1") {
		t.Fatal("down node recovered from passive successes alone")
	}
	p.set("a:1", false)
	c.probeRound(ctx)
	c.probeRound(ctx)
	if !c.healthy("a:1") {
		t.Fatal("down node did not recover from active probes")
	}

	// snapshot carries the bookkeeping for /healthz and metrics.
	snap := c.snapshot()
	if len(snap) != 1 || snap[0].Node != "a:1" || !snap[0].Up || snap[0].Flips != 2 {
		t.Errorf("snapshot = %+v, want a:1 up with 2 transitions", snap)
	}
}

// TestCheckerMixedSignals interleaves probe and forward failures: the
// streak is shared, so 2 forward failures + 1 probe failure eject.
func TestCheckerMixedSignals(t *testing.T) {
	c, p, _ := newTestChecker("a:1")
	c.reportFailure("a:1", errors.New("5xx"), false)
	c.reportFailure("a:1", errors.New("5xx"), false)
	p.set("a:1", true)
	c.probeRound(context.Background())
	if c.healthy("a:1") {
		t.Fatal("mixed probe+forward failure streak did not eject the node")
	}
}
