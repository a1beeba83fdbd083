package cluster

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// keys generates n synthetic coder-id-shaped keys.
func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("coder-%064d", i)
	}
	return out
}

// TestRingPinned pins ring placement: the failover order of 4,000 keys
// on a three-node fleet and on the same fleet with a fourth node,
// hashed. The constant was computed by the ring that still took
// membership changes, before it was built once from the node list.
func TestRingPinned(t *testing.T) {
	const want = "c19ab12f6210b604361dcb81be40eb3640a415c1045662a674434b927e45e6bb"
	h := sha256.New()
	fleet := []string{"n1:8642", "n2:8642", "n3:8642"}
	for _, nodes := range [][]string{fleet, append(fleet, "n4:8642")} {
		r := newRing(nodes)
		for _, key := range keys(4000) {
			h.Write([]byte(key + " " + strings.Join(r.order(key), ",") + "\n"))
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("ring placement hash = %s, want %s", got, want)
	}
}

// TestRingDeterminism pins the routing contract: the same membership
// yields the same assignment regardless of the order the nodes are
// listed in, and order always starts at owner.
func TestRingDeterminism(t *testing.T) {
	a := newRing([]string{"n1:8642", "n2:8642", "n3:8642"})
	b := newRing([]string{"n3:8642", "n1:8642", "n2:8642"})
	c := newRing([]string{"n2:8642", "n3:8642", "n1:8642"})

	for _, k := range keys(500) {
		owner := a.owner(k)
		if got := b.owner(k); got != owner {
			t.Fatalf("key %s: owner differs across listing orders: %s vs %s", k, owner, got)
		}
		if got := c.owner(k); got != owner {
			t.Fatalf("key %s: owner differs across listing orders: %s vs %s", k, owner, got)
		}
		order := a.order(k)
		if len(order) != 3 {
			t.Fatalf("key %s: order returned %d nodes, want 3", k, len(order))
		}
		if order[0] != owner {
			t.Fatalf("key %s: order[0] = %s, owner = %s", k, order[0], owner)
		}
		seen := map[string]bool{}
		for _, n := range order {
			if seen[n] {
				t.Fatalf("key %s: order repeats node %s", k, n)
			}
			seen[n] = true
		}
	}
}

// TestRingDistribution asserts the virtual nodes spread keys within a
// reasonable band of uniform: no node of a 4-node ring owns less than
// half or more than double its fair share over 4000 keys.
func TestRingDistribution(t *testing.T) {
	nodes := []string{"a:1", "b:1", "c:1", "d:1"}
	r := newRing(nodes)
	counts := map[string]int{}
	ks := keys(4000)
	for _, k := range ks {
		counts[r.owner(k)]++
	}
	fair := len(ks) / len(nodes)
	for _, n := range nodes {
		got := counts[n]
		if got < fair/2 || got > fair*2 {
			t.Errorf("node %s owns %d of %d keys (fair share %d): distribution too skewed (%v)",
				n, got, len(ks), fair, counts)
		}
	}
}

// TestRingBoundedMovement is the consistent-hashing property itself: a
// fleet list that gains a node moves roughly 1/(N+1) of the keys — all
// of them onto the new node — and leaves every other assignment
// untouched.
func TestRingBoundedMovement(t *testing.T) {
	three := newRing([]string{"a:1", "b:1", "c:1"})
	four := newRing([]string{"a:1", "b:1", "c:1", "d:1"})
	ks := keys(4000)
	moved := 0
	for _, k := range ks {
		before, after := three.owner(k), four.owner(k)
		if after != before {
			moved++
			if after != "d:1" {
				t.Fatalf("key %s moved %s -> %s: keys may only move onto the joining node",
					k, before, after)
			}
		}
	}
	// Expected movement is 1/4 of keys; allow a 2x band around it.
	want := len(ks) / 4
	if moved < want/2 || moved > want*2 {
		t.Errorf("adding a 4th node moved %d of %d keys, want ~%d (1/N bound violated)",
			moved, len(ks), want)
	}
}

// TestRingEdgeCases covers the degenerate fleets: an empty ring owns
// nothing, and a one-node ring owns everything.
func TestRingEdgeCases(t *testing.T) {
	empty := newRing(nil)
	if got := empty.owner("k"); got != "" {
		t.Errorf("empty ring owner = %q, want empty", got)
	}
	if got := empty.order("k"); got != nil {
		t.Errorf("empty ring order = %v, want nil", got)
	}

	one := newRing([]string{"solo:1"})
	for _, k := range keys(10) {
		if got := one.owner(k); got != "solo:1" {
			t.Errorf("single-node ring owner = %q", got)
		}
	}
}
