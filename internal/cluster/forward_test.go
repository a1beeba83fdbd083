package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ccrp/internal/tracing"
)

// testBackend is one scripted fleet member.
type testBackend struct {
	node string
	ts   *httptest.Server
	hits int
	fail bool // respond 500 when set
	cut  bool // promise a 200 body, send half of it and hang up
	hang bool // take the request and never answer it
	drop bool // hang up before sending any header
}

// newFleet boots n scripted backends and a router over them, recording
// spans on tracer. Nothing probes, so health changes only via passive
// reports (active probing is covered by the checker tests), and retries
// back off for 1 ms.
func newFleet(t *testing.T, n int, tracer *tracing.Tracer) ([]*testBackend, *Router) {
	t.Helper()
	backends := make([]*testBackend, n)
	nodes := make([]string, n)
	stop := make(chan struct{}) // ends every hung request before the servers close
	for i := range backends {
		b := &testBackend{}
		b.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			b.hits++
			if b.fail {
				http.Error(w, "scripted failure", http.StatusInternalServerError)
				return
			}
			if b.hang {
				// Reading the whole body lets the server notice when
				// the router gives up and hangs up on it.
				io.Copy(io.Discard, r.Body)
				select {
				case <-r.Context().Done():
				case <-stop:
				}
				return
			}
			if b.drop {
				conn, _, err := w.(http.Hijacker).Hijack()
				if err != nil {
					t.Error(err)
					return
				}
				conn.Close()
				return
			}
			if b.cut {
				conn, buf, err := w.(http.Hijacker).Hijack()
				if err != nil {
					t.Error(err)
					return
				}
				fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", 2*len(b.node), b.node)
				buf.Flush()
				conn.Close()
				return
			}
			io.WriteString(w, b.node)
		}))
		t.Cleanup(b.ts.Close)
		b.node = strings.TrimPrefix(b.ts.URL, "http://")
		backends[i] = b
		nodes[i] = b.node
	}
	t.Cleanup(func() { close(stop) }) // cleanups run last-in first-out
	rt := NewRouter(nodes, tracer, nil)
	rt.backoff = time.Millisecond
	return backends, rt
}

func byNode(backends []*testBackend) map[string]*testBackend {
	m := make(map[string]*testBackend, len(backends))
	for _, b := range backends {
		m[b.node] = b
	}
	return m
}

// doKey forwards one GET for key and returns the answering node name
// from the response body.
func doKey(t *testing.T, rt *Router, key string) (*result, string) {
	t.Helper()
	res, err := rt.do(context.Background(), key, http.MethodGet, "/v1/thing", nil, nil)
	if err != nil {
		t.Fatalf("forward %q: %v", key, err)
	}
	return res, string(res.body)
}

// TestForwardStickiness: the same key lands on the same (owner) node on
// every request while the fleet is healthy.
func TestForwardStickiness(t *testing.T) {
	backends, rt := newFleet(t, 3, nil)
	owner := rt.ring.owner("coder-abc")
	for i := 0; i < 5; i++ {
		res, servedBy := doKey(t, rt, "coder-abc")
		if servedBy != owner || res.node != owner {
			t.Fatalf("request %d served by %s (result says %s), want owner %s", i, servedBy, res.node, owner)
		}
		if len(res.attempts) != 1 {
			t.Fatalf("request %d failed over on a healthy fleet: %+v", i, res.attempts)
		}
	}
	m := byNode(backends)
	if m[owner].hits != 5 {
		t.Errorf("owner took %d hits, want 5", m[owner].hits)
	}
}

// TestFailoverOn5xx: a 500 from the owner moves the request to the
// ring's next node for the same key, reports the failure to the health
// checker, and the client still sees a 200.
func TestFailoverOn5xx(t *testing.T) {
	backends, rt := newFleet(t, 3, nil)
	key := "coder-failover"
	order := rt.ring.order(key)
	m := byNode(backends)
	m[order[0]].fail = true

	res, servedBy := doKey(t, rt, key)
	if res.status != http.StatusOK {
		t.Fatalf("status = %d, want 200 after failover", res.status)
	}
	if servedBy != order[1] {
		t.Fatalf("served by %s, want the ring successor %s (order %v)", servedBy, order[1], order)
	}
	if len(res.attempts) != 2 {
		t.Fatalf("attempts = %+v, want owner 5xx then successor 200", res.attempts)
	}
	if res.attempts[0].status != http.StatusInternalServerError {
		t.Errorf("first attempt status = %d, want 500", res.attempts[0].status)
	}
	// The failure fed the health state machine.
	snap := rt.health.snapshot()
	for _, st := range snap {
		if st.Node == order[0] && st.ConsecFail != 1 {
			t.Errorf("owner consecutive failures = %d, want 1", st.ConsecFail)
		}
	}
}

// TestFailoverOnConnectionError: a dead listener (the kill -9 case)
// fails over to the next healthy node, and after failThreshold such
// failures the node is ejected so later requests skip it entirely.
func TestFailoverOnConnectionError(t *testing.T) {
	backends, rt := newFleet(t, 3, nil)
	key := "coder-dead-node"
	order := rt.ring.order(key)
	m := byNode(backends)
	m[order[0]].ts.Close() // kill the owner

	for i := 0; i < 3; i++ {
		res, servedBy := doKey(t, rt, key)
		if servedBy != order[1] {
			t.Fatalf("request %d served by %s, want %s", i, servedBy, order[1])
		}
		if len(res.attempts) < 2 {
			t.Fatalf("request %d did not record the failover", i)
		}
	}
	if rt.health.healthy(order[0]) {
		t.Fatal("dead node still healthy after 3 connection failures")
	}
	// Ejected: the next request goes straight to the successor, no
	// failed attempt first.
	res, servedBy := doKey(t, rt, key)
	if servedBy != order[1] || len(res.attempts) != 1 {
		t.Fatalf("post-ejection request: served by %s, attempts %+v; want direct hit on %s",
			servedBy, res.attempts, order[1])
	}
}

// TestAllNodes5xx: when every candidate answers 5xx the client receives
// the backend's own last 5xx response, not a synthesized gateway error.
func TestAllNodes5xx(t *testing.T) {
	backends, rt := newFleet(t, 2, nil)
	for _, b := range backends {
		b.fail = true
	}
	res, err := rt.do(context.Background(), "k", http.MethodGet, "/v1/thing", nil, nil)
	if err != nil {
		t.Fatalf("do: %v (a relayed 5xx is not a transport error)", err)
	}
	if res.status != http.StatusInternalServerError {
		t.Fatalf("status = %d, want the backend's 500", res.status)
	}
	if len(res.attempts) != maxAttempts {
		t.Errorf("attempts = %d, want maxAttempts (3)", len(res.attempts))
	}
}

// TestCandidatesHealthFilter: unhealthy nodes drop out of the try
// order; with the whole fleet down the full ring order returns as a
// last resort.
func TestCandidatesHealthFilter(t *testing.T) {
	_, rt := newFleet(t, 3, nil)
	key := "coder-xyz"
	order := rt.ring.order(key)

	for i := 0; i < 3; i++ {
		rt.health.reportFailure(order[0], context.DeadlineExceeded, false)
	}
	cands := rt.candidates(key)
	if len(cands) != 2 || cands[0] != order[1] {
		t.Fatalf("candidates = %v, want %v without the down owner", cands, order[1:])
	}

	for _, n := range order[1:] {
		for i := 0; i < 3; i++ {
			rt.health.reportFailure(n, context.DeadlineExceeded, false)
		}
	}
	cands = rt.candidates(key)
	if len(cands) != 3 {
		t.Fatalf("all-down candidates = %v, want the full ring order %v", cands, order)
	}
}

// TestBackoffContextCancel: a context cancelled while do sleeps between
// retries aborts the wait promptly instead of serving out the delay.
func TestBackoffContextCancel(t *testing.T) {
	backends, rt := newFleet(t, 1, nil)
	backends[0].fail = true
	rt.backoff = 10 * time.Second // would stall the second attempt

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := rt.do(ctx, "k", http.MethodGet, "/v1/thing", nil, nil)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the first attempt fail and the backoff start
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("do returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("do still sleeping after cancel; backoff ignored the context")
	}
}

// TestForwardPropagatesHeadersAndBody: the forwarded request carries
// the caller's headers (the trace hop) and body bytes verbatim.
func TestForwardPropagatesHeadersAndBody(t *testing.T) {
	var gotTrace, gotBody string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotTrace = r.Header.Get("X-Ccrp-Trace-Id")
		b, _ := io.ReadAll(r.Body)
		gotBody = string(b)
	}))
	defer ts.Close()
	rt := NewRouter([]string{strings.TrimPrefix(ts.URL, "http://")}, nil, nil)

	hdr := http.Header{}
	hdr.Set("X-Ccrp-Trace-Id", "0123456789abcdef0123456789abcdef")
	if _, err := rt.do(context.Background(), "k", http.MethodPost, "/v1/compress?x=1", hdr, []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if gotTrace != "0123456789abcdef0123456789abcdef" {
		t.Errorf("trace header = %q, want propagated id", gotTrace)
	}
	if gotBody != `{"a":1}` {
		t.Errorf("body = %q, want forwarded verbatim", gotBody)
	}
}
