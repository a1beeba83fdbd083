package cluster

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ccrp/internal/cliutil"
	"ccrp/internal/metrics"
	"ccrp/internal/server"
	"ccrp/internal/tracing"
)

// Router span stages, the gateway's addition to the request-path
// vocabulary: one request root per proxied call, one forward child
// covering the retry loop.
const (
	stageRequest = "request"
	stageForward = "forward"
)

// Router is the fleet gateway: it routes every /v1/* request to the
// node that owns the request's coder id on the ring, failing over along
// the ring's successor order when a node is down, and serves its own
// /healthz, /readyz, /metrics and /debug/traces.
//
// Every response carries X-Ccrp-Trace-Id (generated here, adopted by
// the backend, so router and backend spans form one trace) and
// X-Ccrp-Backend (the node that answered). Each request leaves one
// root span recording method, route, status and, when the router
// itself failed the request, error_code; its forward child records the
// owner, the attempts and the node that answered.
type Router struct {
	ring     *ring
	health   *checker
	client   *http.Client
	timeout  time.Duration // per forwarded attempt: attemptTimeout
	backoff  time.Duration // before the second attempt: firstBackoff
	tracer   *tracing.Tracer
	start    time.Time
	draining atomic.Bool

	mu   sync.Mutex // serializes instrument updates and /metrics scrapes
	reg  *metrics.Registry
	inst routerMetrics
}

type routerMetrics struct {
	requests  *metrics.CounterVec // answered requests by backend node
	errors    *metrics.CounterVec // failed attempts (connect error or 5xx) by node
	failovers *metrics.CounterVec // requests rerouted away, by the node that failed
	routeKeys *metrics.CounterVec // route-key derivations by kind (coder | hash)
	nodeUp    *metrics.GaugeVec   // 1 when the health checker holds the node up
	latency   *metrics.Histogram  // forward wall time, seconds, incl. retries
	uptime    *metrics.Gauge
}

// NewRouter builds a gateway over nodes, which must be distinct
// host:port addresses: the ring over them, built once, a health checker
// that holds every node up until probes or forwards say otherwise, and
// the client that forwards. It records spans on tracer (nil disables
// them), calls onTransition (when set; it must not block) on every
// up/down flip of a node, and rejects bodies over server.MaxBodyBytes,
// the limit every backend enforces. Call ProbeRound and Run to start
// probing.
func NewRouter(nodes []string, tracer *tracing.Tracer, onTransition func(node string, up bool)) *Router {
	rt := &Router{
		ring:    newRing(nodes),
		health:  newChecker(nodes, onTransition),
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 32}},
		timeout: attemptTimeout,
		backoff: firstBackoff,
		tracer:  tracer,
		start:   time.Now(),
		reg:     metrics.New(),
	}
	rt.inst = routerMetrics{
		requests:  rt.reg.CounterVec("ccrp_router_requests_total", "requests answered per backend node", "node"),
		errors:    rt.reg.CounterVec("ccrp_router_node_errors_total", "failed forward attempts per node", "node"),
		failovers: rt.reg.CounterVec("ccrp_router_failovers_total", "requests rerouted away from a failing node", "node"),
		routeKeys: rt.reg.CounterVec("ccrp_router_route_keys_total", "route-key derivations by kind", "kind"),
		nodeUp:    rt.reg.GaugeVec("ccrp_router_node_up", "1 when the node is in rotation", "node"),
		latency: rt.reg.Histogram("ccrp_router_forward_seconds", "forward wall time including retries",
			metrics.ExpBuckets(0.0001, 4, 10)),
		uptime: rt.reg.Gauge("ccrp_router_uptime_seconds", "seconds since router start"),
	}
	return rt
}

// Handler returns the gateway's root handler.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/", rt.proxy)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /debug/traces", rt.handleTraces)
	return mux
}

// BeginDrain flips the router's /readyz to 503 for the drain window.
func (rt *Router) BeginDrain() { rt.draining.Store(true) }

// ProbeRound probes every node's /readyz once.
func (rt *Router) ProbeRound(ctx context.Context) { rt.health.probeRound(ctx) }

// Run probes every node now and then every 500 ms until ctx is done.
func (rt *Router) Run(ctx context.Context) { rt.health.run(ctx) }

// UpCount returns how many nodes are in rotation.
func (rt *Router) UpCount() int { return rt.health.upCount() }

// hopHeaders are stripped before forwarding (RFC 9110 connection-
// scoped fields; the router's client manages its own connections).
var hopHeaders = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

// proxy is the /v1/* handler: derive the route key, forward along the
// ring, relay the backend's response bytes and status untouched.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	tid := server.InboundTraceID(r)
	if tid.IsZero() {
		tid = tracing.NewTraceID()
	}
	w.Header().Set(server.TraceHeader, tid.String())
	span := rt.tracer.StartTrace(tid, stageRequest)
	span.SetAttr("route", r.URL.Path)
	span.SetAttr("method", r.Method)

	status := rt.forward(w, r, tid, span)

	span.SetAttrInt("status", int64(status))
	span.End()
	rt.mu.Lock()
	rt.inst.latency.Observe(time.Since(start).Seconds())
	rt.mu.Unlock()
}

// forward runs the routed hop, writes the response and returns the
// client-visible status.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, tid tracing.TraceID, span *tracing.Span) int {
	body, err := server.ReadBody(w, r)
	if err != nil {
		return rt.fail(w, span, err)
	}

	key, kind := server.RouteKey(r.Method, r.URL.Path, body)
	span.SetAttr("route_key", kind)
	rt.mu.Lock()
	rt.inst.routeKeys.With(kind).Inc()
	rt.mu.Unlock()

	hdr := r.Header.Clone()
	for _, h := range hopHeaders {
		hdr.Del(h)
	}
	hdr.Set(server.TraceHeader, tid.String())

	fsp := span.Child(stageForward)
	fsp.SetAttr("owner", rt.ring.owner(key))
	res, err := rt.do(r.Context(), key, r.Method, r.URL.RequestURI(), hdr, body)
	rt.recordAttempts(res, fsp)
	if err != nil {
		fsp.SetError(err)
		fsp.End()
		return rt.fail(w, span, err)
	}
	fsp.SetAttr("node", res.node)
	fsp.End()

	out := w.Header()
	for k, vs := range res.header {
		if k == server.TraceHeader {
			continue // already stamped; the backend echoes the same id
		}
		out[k] = vs
	}
	out.Set(BackendHeader, res.node)
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body) // a client gone mid-write has no one to tell

	rt.mu.Lock()
	rt.inst.requests.With(res.node).Inc()
	rt.mu.Unlock()
	return res.status
}

// recordAttempts attributes every failed try to its node — in metrics
// and on the forward span — whether or not the request recovered.
func (rt *Router) recordAttempts(res *result, fsp *tracing.Span) {
	if res == nil {
		return
	}
	fsp.SetAttrInt("attempts", int64(len(res.attempts)))
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for i, a := range res.attempts {
		failed := a.err != nil || a.status >= 500
		if failed {
			rt.inst.errors.With(a.node).Inc()
		}
		// A failover is a request that left a failing node for a later
		// candidate; the last attempt (successful or not) stays put.
		if failed && i < len(res.attempts)-1 {
			rt.inst.failovers.With(a.node).Inc()
		}
	}
}

// fail writes a router-generated error (the backend never answered) in
// the service's own taxonomy shape, so clients parse one error format
// fleet-wide, and returns its status.
func (rt *Router) fail(w http.ResponseWriter, span *tracing.Span, err error) int {
	span.SetError(err)
	status, code := http.StatusBadGateway, "bad_gateway"
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status, code = http.StatusRequestEntityTooLarge, server.CodePayloadTooLarge
	} else if errors.Is(err, context.DeadlineExceeded) {
		status, code = http.StatusGatewayTimeout, "gateway_timeout"
	}
	span.SetAttr("error_code", code)
	server.WriteError(w, server.Errf(status, code, "%v", err))
	return status
}

// healthzBody is the router's /healthz shape: its own liveness plus the
// fleet picture its routing decisions are based on.
type healthzBody struct {
	Status        string       `json:"status"`
	Version       string       `json:"version"`
	UptimeSeconds float64      `json:"uptime_seconds"`
	RingNodes     int          `json:"ring_nodes"`
	NodesUp       int          `json:"nodes_up"`
	Fleet         []nodeStatus `json:"fleet"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, healthzBody{
		Status:        "ok",
		Version:       cliutil.Version(),
		UptimeSeconds: time.Since(rt.start).Seconds(),
		RingNodes:     len(rt.ring.nodes),
		NodesUp:       rt.health.upCount(),
		Fleet:         rt.health.snapshot(),
	})
}

// handleReadyz: the router is ready while it can route somewhere — at
// least one node up and drain not begun.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if rt.draining.Load() {
		server.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if rt.health.upCount() == 0 {
		server.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no backends"})
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, st := range rt.health.snapshot() {
		up := 0.0
		if st.Up {
			up = 1.0
		}
		rt.inst.nodeUp.With(st.Node).Set(up)
	}
	rt.inst.uptime.Set(time.Since(rt.start).Seconds())
	_ = rt.reg.WritePrometheus(w)
}

func (rt *Router) handleTraces(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, rt.tracer.TailSnapshot())
}
