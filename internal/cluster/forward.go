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

// ForwarderConfig tunes a Forwarder. Zero fields select defaults.
type ForwarderConfig struct {
	// Ring supplies each key's failover order. Required.
	Ring *Ring
	// Health gates candidate selection and receives forwarding
	// outcomes. Required.
	Health *Checker
	// Client issues the backend requests. nil selects a plain
	// http.Client; per-attempt deadlines come from Timeout, not the
	// client.
	Client *http.Client
	// Timeout bounds one forwarded attempt; 0 selects 30s.
	Timeout time.Duration
	// MaxAttempts bounds the total tries per request across all
	// candidate nodes; 0 selects 3.
	MaxAttempts int
	// Backoff is the delay before the second attempt, doubling per
	// retry; 0 selects 25ms. The paper's refill engine retries nothing
	// — but its bus never loses a line; HTTP does.
	Backoff time.Duration
	// MaxBackoff caps the doubled delay; 0 selects 2s. Without a cap
	// the shift grows without bound (and past 63 doublings the shifted
	// value is garbage), so large MaxAttempts settings would sleep for
	// hours between late retries.
	MaxBackoff time.Duration
}

// Forwarder routes one request to the healthy node owning its key,
// failing over along the ring's successor order on connection errors
// and 5xx responses. Retryability relies on the service being
// idempotent by construction: training is content-addressed, compress
// and decompress are pure functions of their bodies, so replaying a
// request against a second node cannot double-apply anything.
type Forwarder struct {
	cfg ForwarderConfig
}

// NewForwarder builds a Forwarder.
func NewForwarder(cfg ForwarderConfig) *Forwarder {
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 25 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	return &Forwarder{cfg: cfg}
}

// Attempt records one forwarding try for logs and spans.
type Attempt struct {
	Node   string
	Status int // 0 on transport error
	Err    error
}

// Result is a completed forward: the answering backend's status, header
// and whole body, plus attribution.
type Result struct {
	Status   int
	Header   http.Header
	Body     []byte
	Node     string    // node that answered
	Attempts []Attempt // every try, in order; the last one answered
}

// FailedOver reports whether the answering node was not the first
// candidate tried.
func (r *Result) FailedOver() bool { return len(r.Attempts) > 1 }

// Candidates returns the nodes eligible for key in try order: healthy
// members in ring order. When every node is down the full ring order is
// returned instead — the checker may be stale, and trying a "down" node
// beats returning 503 unprobed.
func (f *Forwarder) Candidates(key string) []string {
	order := f.cfg.Ring.Order(key)
	healthy := order[:0:0]
	for _, n := range order {
		if f.cfg.Health.Healthy(n) {
			healthy = append(healthy, n)
		}
	}
	if len(healthy) == 0 {
		return order
	}
	return healthy
}

// Do forwards one request addressed by key: method and path (plus raw
// query) against the chosen node, with the given headers and body.
// Responses below 500 — including the service's typed 4xx errors — are
// successes from the routing layer's point of view and return
// immediately; connection errors, bodies cut short and 5xx count
// against the node and fail over. The returned error is non-nil only
// when every attempt failed at the transport layer; a 5xx from the last
// candidate is returned as a Result so the client sees the backend's
// own words.
func (f *Forwarder) Do(ctx context.Context, key, method, pathAndQuery string, header http.Header, body []byte) (*Result, error) {
	candidates := f.Candidates(key)
	if len(candidates) == 0 {
		return nil, fmt.Errorf("cluster: no nodes for key %q", key)
	}
	res := &Result{}
	var lastErr error
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for attempt := 0; attempt < f.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			// Exponential backoff between tries, abandoned the moment
			// the client's own context expires. One timer serves every
			// retry; time.After would leak a timer per attempt until
			// its delay elapsed.
			delay := f.backoffDelay(attempt)
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
		node := candidates[attempt%len(candidates)]
		status, hdr, respBody, err := f.try(ctx, node, method, pathAndQuery, header, body)
		if err != nil {
			res.Attempts = append(res.Attempts, Attempt{Node: node, Err: err})
			f.cfg.Health.ReportFailure(node, err)
			lastErr = err
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			continue
		}
		res.Attempts = append(res.Attempts, Attempt{Node: node, Status: status})
		res.Status, res.Header, res.Body, res.Node = status, hdr, respBody, node
		if status >= 500 {
			// Kept until a later candidate answers: if none does, the
			// last 5xx is relayed rather than one of our own invention,
			// so error taxonomies survive the hop.
			f.cfg.Health.ReportFailure(node, fmt.Errorf("backend %s: %d %s", node, status, http.StatusText(status)))
			continue
		}
		f.cfg.Health.ReportSuccess(node)
		return res, nil
	}
	if res.Status != 0 {
		return res, nil
	}
	return nil, fmt.Errorf("cluster: all %d attempts failed for key %q: %w",
		len(res.Attempts), key, lastErr)
}

// backoffDelay returns the capped exponential delay before the given
// attempt (attempt >= 1).
func (f *Forwarder) backoffDelay(attempt int) time.Duration {
	delay := f.cfg.Backoff
	for i := 1; i < attempt; i++ {
		delay *= 2
		if delay >= f.cfg.MaxBackoff || delay <= 0 { // <= 0: overflow
			return f.cfg.MaxBackoff
		}
	}
	if delay > f.cfg.MaxBackoff {
		return f.cfg.MaxBackoff
	}
	return delay
}

// try issues one attempt against one node and reads the whole response
// under the per-attempt deadline. A body cut short is an error like a
// refused connection: the client must never see a status whose body
// the backend failed to deliver.
func (f *Forwarder) try(ctx context.Context, node, method, pathAndQuery string, header http.Header, body []byte) (int, http.Header, []byte, error) {
	actx, cancel := context.WithTimeout(ctx, f.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, method, "http://"+node+pathAndQuery, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	for k, vs := range header {
		req.Header[k] = vs
	}
	resp, err := f.cfg.Client.Do(req)
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
