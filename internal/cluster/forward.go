package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"
)

// BackendHeader names the response header a router stamps with the
// backend node that served the request, so clients can observe
// per-node distribution without access to router internals.
const BackendHeader = "X-Ccrp-Backend"

// The retry policy: at most maxAttempts tries per request across the
// candidate nodes, each under an attemptTimeout deadline, with
// firstBackoff before the second try, doubling per retry. The paper's
// refill engine retries nothing — but its bus never loses a line; HTTP
// does.
const (
	maxAttempts    = 3
	attemptTimeout = 30 * time.Second
	firstBackoff   = 25 * time.Millisecond
)

// attempt records one forwarding try for metrics and spans.
type attempt struct {
	node   string
	status int // 0 on transport error
	err    error
}

// result is a completed forward: the answering backend's status, header
// and whole body, plus attribution.
type result struct {
	status   int
	header   http.Header
	body     []byte
	node     string    // node that answered
	attempts []attempt // every try, in order; the last one answered
}

// candidates returns the nodes eligible for key in try order: healthy
// members in ring order. When every node is down the full ring order is
// returned instead — the checker may be stale, and trying a "down" node
// beats returning 503 unprobed.
func (rt *Router) candidates(key string) []string {
	order := rt.ring.order(key)
	healthy := order[:0:0]
	for _, n := range order {
		if rt.health.healthy(n) {
			healthy = append(healthy, n)
		}
	}
	if len(healthy) == 0 {
		return order
	}
	return healthy
}

// do forwards one request addressed by key to the healthy node owning
// it: method and path (plus raw query), with the given headers and
// body. Responses below 500 — including the service's typed 4xx errors
// — are successes from the routing layer's point of view and return
// immediately; connection errors, bodies cut short and 5xx count
// against the node and fail over along the ring's successor order. The
// returned error is non-nil only when every attempt failed at the
// transport layer; a 5xx from the last candidate is returned as a
// result so the client sees the backend's own words.
//
// Retrying relies on the service being idempotent by construction:
// training is content-addressed, compress and decompress are pure
// functions of their bodies, so replaying a request against a second
// node cannot double-apply anything.
func (rt *Router) do(ctx context.Context, key, method, pathAndQuery string, header http.Header, body []byte) (*result, error) {
	candidates := rt.candidates(key)
	if len(candidates) == 0 {
		return nil, fmt.Errorf("cluster: no nodes for key %q", key)
	}
	res := &result{}
	var lastErr error
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for i := 0; i < maxAttempts; i++ {
		if i > 0 {
			// Exponential backoff between tries, abandoned the moment
			// the client's own context expires. One timer serves every
			// retry; time.After would leak a timer per attempt until
			// its delay elapsed.
			delay := rt.backoff << (i - 1)
			if timer == nil {
				timer = time.NewTimer(delay)
			} else {
				timer.Reset(delay)
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-timer.C:
			}
		}
		node := candidates[i%len(candidates)]
		status, hdr, respBody, err := rt.try(ctx, node, method, pathAndQuery, header, body)
		if err != nil {
			res.attempts = append(res.attempts, attempt{node: node, err: err})
			rt.health.reportFailure(node, err, false)
			lastErr = err
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			continue
		}
		res.attempts = append(res.attempts, attempt{node: node, status: status})
		res.status, res.header, res.body, res.node = status, hdr, respBody, node
		if status >= 500 {
			// Kept until a later candidate answers: if none does, the
			// last 5xx is relayed rather than one of our own invention,
			// so error taxonomies survive the hop.
			rt.health.reportFailure(node, fmt.Errorf("backend %s: %d %s", node, status, http.StatusText(status)), false)
			continue
		}
		rt.health.reportSuccess(node, false)
		return res, nil
	}
	if res.status != 0 {
		return res, nil
	}
	return nil, fmt.Errorf("cluster: all %d attempts failed for key %q: %w",
		len(res.attempts), key, lastErr)
}

// try issues one attempt against one node and reads the whole response
// under the per-attempt deadline. A body cut short is an error like a
// refused connection: the client must never see a status whose body
// the backend failed to deliver.
func (rt *Router) try(ctx context.Context, node, method, pathAndQuery string, header http.Header, body []byte) (int, http.Header, []byte, error) {
	actx, cancel := context.WithTimeout(ctx, rt.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, method, "http://"+node+pathAndQuery, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	for k, vs := range header {
		req.Header[k] = vs
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("backend %s: reading %s body: %w", node, resp.Status, err)
	}
	return resp.StatusCode, resp.Header, respBody, nil
}
