// Package cluster is the fleet-serving layer of the stack: Router, a
// gateway over a fixed list of ccrpd nodes. It routes each request by a
// consistent-hash ring that assigns content-addressed coder ids to
// nodes, keeps per-node up/down state from active probes and forwarding
// outcomes, and forwards with deadlines, bounded retries and failover.
// cmd/ccrp-router only parses flags around it.
//
// The design replays the paper's central indirection one level up. On
// the embedded core, the LAT maps a fetch address to wherever its
// compressed block actually lives in ROM; here, the ring maps a coder
// id to whichever node owns its trained artifacts, so one expensive
// build (a trained coder, a compressed image) serves the whole fleet
// instead of being redone per node. Like the LAT, the ring is built
// once and then only read: the same key always resolves to the same
// healthy node, and a fleet list that gains a node at restart moves
// only the keys the new node takes.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// replicas is the virtual-node count per node. 128 points per node
// keeps the ring's load spread within a few percent of uniform for
// small fleets (see TestRingDistribution) at a memory cost of one
// (hash, index) pair per point.
const replicas = 128

// ring is a consistent-hash ring over a fixed set of named nodes. Every
// node owns replicas points on a 64-bit circle; a key belongs to the
// first point clockwise from its own hash. It is built once and only
// read after, so lookups are safe to share between goroutines; health
// is tracked separately, and routing skips unhealthy nodes by walking
// the ring order.
type ring struct {
	nodes  []string // sorted member names
	points []point  // sorted by hash
}

// point is one virtual node: a position on the circle and the index of
// its owner in nodes.
type point struct {
	hash uint64
	node int
}

// newRing builds the ring over nodes, which must be distinct. Points
// are derived only from node names, so the ring's shape is independent
// of the order nodes are listed in.
func newRing(nodes []string) *ring {
	r := &ring{nodes: append([]string(nil), nodes...)}
	sort.Strings(r.nodes)
	for ni, node := range r.nodes {
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, point{
				hash: hash64(fmt.Sprintf("%s#%d", node, i)),
				node: ni,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare with 64-bit SHA prefixes) break
		// by node name so the ring stays deterministic regardless.
		return r.nodes[r.points[i].node] < r.nodes[r.points[j].node]
	})
	return r
}

// hash64 maps a string onto the circle. SHA-256 (truncated) rather than
// a fast non-cryptographic hash: ring placement must be identical
// across processes, architectures, and releases — the fleet's analogue
// of the LAT being part of the ROM image — and the coder ids being
// hashed are themselves SHA-256 hex, so keys are cheap to hash and
// adversarial clustering is not a concern.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// owner returns the node owning key: the first virtual point clockwise
// from the key's hash. Empty string on an empty ring.
func (r *ring) owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.nodes[r.points[r.search(key)].node]
}

// search finds the index of the first point at or after the key's hash,
// wrapping past the top of the circle.
func (r *ring) search(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// order returns every member in the key's failover order: the owner
// first, then each further distinct node in clockwise ring order. This
// is the routing contract the router walks — when the owner is down,
// the key's requests all agree on the same next node, so failover
// traffic stays as concentrated as primary traffic.
func (r *ring) order(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.nodes))
	seen := make([]bool, len(r.nodes))
	start := r.search(key)
	for i := 0; i < len(r.points) && len(out) < len(r.nodes); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, r.nodes[p.node])
		}
	}
	return out
}
