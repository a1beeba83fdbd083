package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// The probe policy. A node is probed every probeInterval, each probe
// with a probeTimeout deadline; it goes down after failThreshold
// consecutive probe or forward failures and comes back up after
// recoverThreshold consecutive probe successes.
const (
	probeInterval    = 500 * time.Millisecond
	probeTimeout     = 2 * time.Second
	failThreshold    = 3
	recoverThreshold = 2
)

// nodeHealth is one node's state machine. Nodes start up — the fleet is
// presumed serving at boot, and the first probe round corrects any
// optimism within one probeInterval.
type nodeHealth struct {
	up         bool
	consecFail int // probe or forward failures since the last success
	consecOK   int // active-probe successes since the last failure
	lastErr    string
	lastProbe  time.Time
	flips      int // up/down transitions since boot
}

// nodeStatus is one node's entry in the router's /healthz fleet list.
type nodeStatus struct {
	Node       string    `json:"node"`
	Up         bool      `json:"up"`
	ConsecFail int       `json:"consecutive_failures,omitempty"`
	LastErr    string    `json:"last_error,omitempty"`
	LastProbe  time.Time `json:"last_probe,omitempty"`
	Flips      int       `json:"transitions,omitempty"`
}

// checker tracks per-node up/down state from two signals: active
// readiness probes on a fixed interval, and passive failure reports
// from the forwarding path. Passive reports share the consecutive-
// failure counter, so a kill -9'd backend is ejected after
// failThreshold failed forwards without waiting out a probe round;
// recovery, by contrast, requires recoverThreshold consecutive *active*
// probe successes, so a flapping node must prove itself before taking
// traffic again.
type checker struct {
	nodes []string
	// probe checks one node, returning nil when it is ready to serve:
	// httpProbe, or a scripted probe in tests.
	probe func(ctx context.Context, node string) error
	// onTransition, when set, is called on every up/down flip (not for
	// the initial states), from run's goroutine and from forwarding
	// goroutines; it must not block.
	onTransition func(node string, up bool)

	mu    sync.Mutex
	state map[string]*nodeHealth
}

// newChecker builds a checker over distinct nodes, every one initially
// up. Call run to start active probing.
func newChecker(nodes []string, onTransition func(node string, up bool)) *checker {
	c := &checker{
		nodes: nodes, probe: httpProbe, onTransition: onTransition,
		state: make(map[string]*nodeHealth, len(nodes)),
	}
	for _, n := range nodes {
		c.state[n] = &nodeHealth{up: true}
	}
	return c
}

// httpProbe is the readiness probe: GET http://node/readyz must answer
// 200 within the probe's deadline, so a draining ccrpd (readyz 503)
// leaves the rotation before its listener closes.
func httpProbe(ctx context.Context, node string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+node+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz: %s", resp.Status)
	}
	return nil
}

// run probes every node now and then each probeInterval until ctx is
// done.
func (c *checker) run(ctx context.Context) {
	ticker := time.NewTicker(probeInterval)
	defer ticker.Stop()
	for {
		c.probeRound(ctx)
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// probeRound actively probes every node once. One round probes nodes
// sequentially — fleets are small and probes cheap; a hung node costs
// at most probeTimeout per round.
func (c *checker) probeRound(ctx context.Context) {
	for _, node := range c.nodes {
		if ctx.Err() != nil {
			return
		}
		pctx, cancel := context.WithTimeout(ctx, probeTimeout)
		err := c.probe(pctx, node)
		cancel()
		if err != nil {
			c.reportFailure(node, err, true)
		} else {
			c.reportSuccess(node, true)
		}
	}
}

// reportFailure feeds a failed probe, or a forwarding failure (connect
// error or 5xx), into the node's state machine.
func (c *checker) reportFailure(node string, err error, probed bool) {
	c.mu.Lock()
	st, ok := c.state[node]
	if !ok {
		c.mu.Unlock()
		return
	}
	st.consecFail++
	st.consecOK = 0
	if err != nil {
		st.lastErr = err.Error()
	}
	if probed {
		st.lastProbe = time.Now()
	}
	flipped := st.up && st.consecFail >= failThreshold
	if flipped {
		st.up = false
		st.flips++
	}
	c.mu.Unlock()
	if flipped && c.onTransition != nil {
		c.onTransition(node, false)
	}
}

// reportSuccess feeds a good probe or a successful forward into the
// node's state machine. Both clear the failure streak; only probes
// count toward recovery.
func (c *checker) reportSuccess(node string, probed bool) {
	c.mu.Lock()
	st, ok := c.state[node]
	if !ok {
		c.mu.Unlock()
		return
	}
	st.consecFail = 0
	if probed {
		st.consecOK++
		st.lastProbe = time.Now()
		st.lastErr = ""
	}
	flipped := !st.up && probed && st.consecOK >= recoverThreshold
	if flipped {
		st.up = true
		st.flips++
	}
	c.mu.Unlock()
	if flipped && c.onTransition != nil {
		c.onTransition(node, true)
	}
}

// healthy reports whether the node is currently up. Unknown nodes are
// unhealthy.
func (c *checker) healthy(node string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.state[node]
	return ok && st.up
}

// upCount returns how many nodes are currently up.
func (c *checker) upCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, st := range c.state {
		if st.up {
			n++
		}
	}
	return n
}

// snapshot returns every node's status in membership order.
func (c *checker) snapshot() []nodeStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]nodeStatus, 0, len(c.nodes))
	for _, node := range c.nodes {
		st := c.state[node]
		out = append(out, nodeStatus{
			Node: node, Up: st.up,
			ConsecFail: st.consecFail,
			LastErr:    st.lastErr,
			LastProbe:  st.lastProbe,
			Flips:      st.flips,
		})
	}
	return out
}
