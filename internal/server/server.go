// Package server implements ccrpd, the compression-and-simulation
// service: the paper's host-side toolchain (train a coder, compress a
// program line by line, predict execution cost) exposed as a long-running
// HTTP/JSON daemon instead of one-shot CLIs.
//
// The service layers directly over the existing engine:
//
//   - POST /v1/coders trains or fetches a coder (huffman | bounded |
//     preselected | codepack) from an uploaded corpus. The server holds
//     each coder once, by its content-addressed id, in a single-flight
//     internal/sweep cache: concurrent identical requests share one
//     build, a failed build is answered and not kept, and a retrained
//     coder is byte-for-byte the CLI's.
//   - POST /v1/compress and /v1/decompress run block-bounded line
//     compression of whole text images, returning LAT-ready per-line
//     lengths, the compression ratio, and (for Huffman coders) the
//     serialized CROM image — byte-identical to cmd/ccpack's output.
//   - POST /v1/simulate runs one core.Config point through the
//     trace-driven system simulator under a bounded worker pool with a
//     per-request deadline.
//   - GET /healthz, GET /metrics (Prometheus text format via
//     internal/metrics), and /debug/pprof/* provide the operational
//     surface.
//
// Production shape: request-size limits, per-route timeouts, a typed
// JSON error taxonomy (errors.go), panic confinement per request, and
// one root span per request as its structured record (internal/tracing).
// Graceful drain on SIGTERM lives in cliutil.Serve.
package server

import (
	"context"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ccrp/internal/cliutil"
	"ccrp/internal/hostinfo"
	"ccrp/internal/metrics"
	"ccrp/internal/sweep"
	"ccrp/internal/tracing"
)

// TraceHeader carries the request's trace id on every response, 2xx and
// error alike, so clients can correlate their latency outliers with
// server-side span trees.
const TraceHeader = "X-Ccrp-Trace-Id"

// Stage names of the served request path, the per-request analogue of
// the paper's per-fetch cost decomposition: every span ccrpd emits uses
// one of these, and TestRequestSpansCoverStages asserts the full set
// appears.
const (
	StageRequest    = "request"         // root span, one per request
	StageDecodeBody = "decode_body"     // body read and JSON parse
	StageText       = "text_resolve"    // program-image resolution (first touch builds the workload)
	StageCoderGet   = "coder_resolve"   // coder-id lookup
	StageCoderTrain = "coder_train"     // coder build (or artifact-cache hit)
	StageCompress   = "compress"        // block-bounded ROM build
	StageDecompress = "decompress"      // CROM parse or per-line expansion
	StageSimQueue   = "sim_queue"       // waiting for a simulate worker slot
	StageSimRun     = "sim_run"         // trace-driven simulation
	StageEncode     = "encode_response" // response JSON marshalling
	StageBatchItem  = "batch_item"      // one item of a :batch request
)

// Request limits and deadlines, the same for every ccrpd.
const (
	// MaxBodyBytes bounds every request body, here and at the
	// cluster.Router in front of a fleet.
	MaxBodyBytes = 16 << 20
	// The per-route deadlines.
	trainTimeout    = 60 * time.Second
	compressTimeout = 30 * time.Second
	simulateTimeout = 120 * time.Second
)

// Config is what a caller sets. The zero value serves in memory, with no
// span recording.
type Config struct {
	// Tracer, when set, records request-scoped spans: a root span per
	// request — the request's one record: method, route, status,
	// duration, error code and trace id — plus the stage children the
	// handlers emit, with tail capture served on /debug/traces. nil
	// disables span recording; the trace id in responses is independent
	// of it.
	Tracer *tracing.Tracer
	// Store, when set, persists trained coders across restarts: training
	// checks it before building and writes through after, and an id the
	// server does not hold is read from it before a 404, so a restarted
	// server reads each stored coder once, on first use (cmd/ccrpd's
	// -store flag). ROM images never persist. nil keeps coders in memory
	// only.
	Store *Store
}

// Server is the ccrpd service state. Create with New; serve s.Handler().
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	start   time.Time
	version string // reported by /healthz: cliutil.Version

	// coders is the one place a coder is held, by content-addressed id:
	// trained here, or read from the store on first use. It keeps a
	// coder for the process lifetime, unbounded: a trained coder is a
	// resource its client owns, like the id it holds.
	coders *sweep.Cache
	roms   *sweep.Cache // the ROMs of named workloads (buildROM)

	sem chan struct{} // simulate worker pool

	// Registry instruments are single-threaded by design; metricsMu
	// serializes handler-side updates and the /metrics scrape.
	metricsMu sync.Mutex
	registry  *metrics.Registry
	inst      serverMetrics
	runtime   *metrics.RuntimeStats
	tracer    *tracing.Tracer

	inflight atomic.Int64
	draining atomic.Bool // set by BeginDrain; flips /readyz to 503
}

// serverMetrics caches the instrument handles so the hot path does one
// registry lookup per instrument per process, not per request.
type serverMetrics struct {
	requests  *metrics.CounterVec // by route
	responses *metrics.CounterVec // by status code
	errors    *metrics.CounterVec // by taxonomy code
	latency   *metrics.Histogram  // seconds, all routes
	simWait   *metrics.Histogram  // seconds queued for a worker slot
	bytesIn   *metrics.Counter
	bytesOut  *metrics.Counter
	builds    *metrics.Counter // coder builds that actually ran
	uptime    *metrics.Gauge
	inflight  *metrics.Gauge

	storeHits    *metrics.Counter // artifacts served from the disk store
	storeMisses  *metrics.Counter // store probes that fell through to a build
	storeWrites  *metrics.Counter // freshly built artifacts persisted
	storeCorrupt *metrics.Counter // stored artifacts rejected by verification
	storeBytes   *metrics.Gauge   // payload bytes resident in the disk store

	batchItems      *metrics.Counter // items processed across :batch requests
	batchItemErrors *metrics.Counter // items that failed inside a :batch request
}

// New builds a Server with its routes registered.
func New(cfg Config) *Server {
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		version:  cliutil.Version(),
		coders:   sweep.NewCache(),
		roms:     sweep.NewCache(),
		sem:      make(chan struct{}, runtime.NumCPU()),
		registry: metrics.New(),
		tracer:   cfg.Tracer,
		start:    time.Now(),
	}
	s.runtime = metrics.NewRuntimeStats(s.registry)
	s.inst = serverMetrics{
		requests:  s.registry.CounterVec("ccrpd_requests_total", "requests received", "route"),
		responses: s.registry.CounterVec("ccrpd_responses_total", "responses sent", "status"),
		errors:    s.registry.CounterVec("ccrpd_errors_total", "error responses", "code"),
		latency: s.registry.Histogram("ccrpd_request_seconds", "request wall time",
			metrics.ExpBuckets(0.0001, 4, 10)),
		simWait: s.registry.Histogram("ccrpd_sim_queue_seconds", "time queued for a simulate slot",
			metrics.ExpBuckets(0.0001, 4, 10)),
		bytesIn:  s.registry.Counter("ccrpd_text_bytes_in_total", "program text bytes received"),
		bytesOut: s.registry.Counter("ccrpd_text_bytes_out_total", "program text bytes returned"),
		builds:   s.registry.Counter("ccrpd_coder_builds_total", "coder builds executed (cache misses)"),
		uptime:   s.registry.Gauge("ccrpd_uptime_seconds", "seconds since server start"),
		inflight: s.registry.Gauge("ccrpd_inflight_requests", "requests currently being served"),

		storeHits:    s.registry.Counter("ccrpd_store_hits_total", "artifacts served from the disk store"),
		storeMisses:  s.registry.Counter("ccrpd_store_misses_total", "store probes that fell through to a build"),
		storeWrites:  s.registry.Counter("ccrpd_store_writes_total", "freshly built artifacts persisted to the store"),
		storeCorrupt: s.registry.Counter("ccrpd_store_corrupt_total", "stored artifacts rejected by verification"),
		storeBytes:   s.registry.Gauge("ccrpd_store_bytes", "artifact payload bytes resident in the disk store"),

		batchItems:      s.registry.Counter("ccrpd_batch_items_total", "items processed across batch requests"),
		batchItemErrors: s.registry.Counter("ccrpd_batch_item_errors_total", "batch items that failed"),
	}

	s.route("POST /v1/coders", trainTimeout, s.handleTrainCoder)
	s.route("GET /v1/coders/{id}", 5*time.Second, s.handleGetCoder)
	s.route("POST /v1/compress", compressTimeout, s.handleCompress)
	s.route("POST /v1/decompress", compressTimeout, s.handleDecompress)
	s.route("POST /v1/compress:batch", compressTimeout, s.handleCompressBatch)
	s.route("POST /v1/decompress:batch", compressTimeout, s.handleDecompressBatch)
	s.route("POST /v1/simulate", simulateTimeout, s.handleSimulate)
	s.route("GET /v1/artifacts", 5*time.Second, s.handleArtifacts)
	s.route("GET /healthz", 5*time.Second, s.handleHealthz)
	s.route("GET /readyz", 5*time.Second, s.handleReadyz)
	s.route("GET /metrics", 5*time.Second, s.handleMetrics)
	s.route("GET /debug/traces", 5*time.Second, s.handleTraces)

	// pprof must bypass the JSON middleware (it streams its own formats
	// and profile durations exceed route timeouts by design).
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	// Everything else: typed 404/405 instead of the mux's plain text.
	s.mux.Handle("/", s.middleware("fallback", 5*time.Second,
		func(w http.ResponseWriter, r *http.Request) error {
			return Errf(http.StatusNotFound, CodeNotFound, "no route %s %s", r.Method, r.URL.Path)
		}))
	return s
}

// Handler returns the root handler for an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// handlerFunc is a route handler that reports failures as errors; the
// middleware owns serialization, logging, and instrumentation.
type handlerFunc func(w http.ResponseWriter, r *http.Request) error

// route registers pattern with the standard middleware stack. The
// pattern's method is enforced by the mux; a bare-path duplicate maps
// wrong verbs onto the 405 taxonomy entry.
func (s *Server) route(pattern string, timeout time.Duration, h handlerFunc) {
	method, path, _ := cutPattern(pattern)
	s.mux.Handle(pattern, s.middleware(path, timeout, h))
	// Same path, any other method -> typed 405. The mux prefers the
	// more specific method pattern, so this only fires on mismatches.
	s.mux.Handle(path, s.middleware(path, timeout,
		func(w http.ResponseWriter, r *http.Request) error {
			w.Header().Set("Allow", method)
			return Errf(http.StatusMethodNotAllowed, CodeMethodNotAllowed,
				"%s requires %s, got %s", path, method, r.Method)
		}))
}

// cutPattern splits "METHOD /path" registration patterns.
func cutPattern(pattern string) (method, path string, ok bool) {
	for i := 0; i < len(pattern); i++ {
		if pattern[i] == ' ' {
			return pattern[:i], pattern[i+1:], true
		}
	}
	return "", pattern, false
}

// statusWriter captures the response status for logs and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(status int) {
	if !w.wrote {
		w.status, w.wrote = status, true
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.status, w.wrote = http.StatusOK, true
	}
	return w.ResponseWriter.Write(p)
}

// middleware wraps h with the production stack: panic confinement, the
// per-route deadline, trace propagation, and metrics; the request-size
// limit is ReadBody's. Order matters: the recover must be outermost so
// even instrumentation bugs produce a typed 500 rather than a dropped
// connection.
//
// Every request gets a trace id, stamped on the response header whether
// or not a tracer is configured, so client-side outliers are always
// correlatable. Span recording (the root span here, which is the
// request's record, plus the stage children the handlers start) happens
// only when Config.Tracer is set; with a nil tracer every span call
// below is an allocation-free no-op.
func (s *Server) middleware(routeName string, timeout time.Duration, h handlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		s.inflight.Add(1)

		// Adopt a well-formed inbound trace id (the ccrp-router hop) so
		// gateway and backend stages stitch into one trace; anything
		// malformed — wrong length, non-hex, the invalid zero id — is
		// ignored and a fresh id generated, so a hostile or buggy client
		// cannot poison trace correlation.
		tid := InboundTraceID(r)
		if tid.IsZero() {
			tid = tracing.NewTraceID()
		}
		// Set before the handler runs: headers freeze at WriteHeader.
		sw.Header().Set(TraceHeader, tid.String())
		span := s.tracer.StartTrace(tid, StageRequest)
		span.SetAttr("route", routeName)
		span.SetAttr("method", r.Method)

		var handlerErr error
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					handlerErr = Errf(http.StatusInternalServerError, CodeInternal,
						"handler panicked: %v", rec)
				}
			}()
			ctx, cancel := r.Context(), context.CancelFunc(func() {})
			if timeout > 0 {
				ctx, cancel = context.WithTimeout(ctx, timeout)
			}
			defer cancel()
			ctx = tracing.ContextWith(ctx, span)
			r = r.WithContext(ctx)
			handlerErr = h(sw, r)
		}()
		if handlerErr != nil && !sw.wrote {
			WriteError(sw, handlerErr)
		}

		dur := time.Since(start)
		inflight := s.inflight.Add(-1)
		errCode := ""
		if handlerErr != nil {
			errCode = asAPIError(handlerErr).Code
		}

		span.SetAttrInt("status", int64(sw.status))
		if handlerErr != nil {
			span.SetAttr("error_code", errCode)
			span.SetError(handlerErr)
		}
		span.End()

		s.metricsMu.Lock()
		s.inst.requests.With(routeName).Inc()
		s.inst.responses.WithInt(sw.status).Inc()
		if errCode != "" {
			s.inst.errors.With(errCode).Inc()
		}
		s.inst.latency.Observe(dur.Seconds())
		s.inst.inflight.Set(float64(inflight))
		s.metricsMu.Unlock()
	})
}

// InboundTraceID extracts a valid trace id from the request header, or
// the zero id when the header is absent or malformed. Only the
// 32-hex-digit 128-bit form the stack itself emits is accepted.
func InboundTraceID(r *http.Request) tracing.TraceID {
	raw := r.Header.Get(TraceHeader)
	if raw == "" {
		return tracing.TraceID{}
	}
	tid, err := tracing.ParseTraceID(raw)
	if err != nil {
		return tracing.TraceID{}
	}
	return tid
}

// healthzBody is the /healthz response shape.
type healthzBody struct {
	Status        string        `json:"status"`
	Version       string        `json:"version"`
	UptimeSeconds float64       `json:"uptime_seconds"`
	Host          hostinfo.Info `json:"host"`
	Coders        int           `json:"coders"`
	SimWorkers    int           `json:"sim_workers"`
	Inflight      int64         `json:"inflight"`
	Draining      bool          `json:"draining,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	WriteJSON(w, http.StatusOK, healthzBody{
		Status:        "ok",
		Version:       s.version,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Host:          hostinfo.Collect(),
		Coders:        s.coders.Len(),
		SimWorkers:    cap(s.sem),
		Inflight:      s.inflight.Load(),
		Draining:      s.draining.Load(),
	})
	return nil
}

// BeginDrain flips /readyz to 503. cliutil.Serve calls it when ccrpd's
// drain begins, before the listener closes: a router's health checker
// sees the node leave the rotation while in-flight requests (and
// /healthz, which stays 200 for the whole drain window) keep being
// served.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// readyzBody is the /readyz response shape.
type readyzBody struct {
	Status string `json:"status"` // "ready" | "draining"
}

// handleReadyz is the routing-eligibility probe: 200 while the node
// should take new traffic, 503 from the moment drain begins. Liveness
// (/healthz) and readiness split exactly as in any fleet-scheduled
// service — a draining process is alive but must not receive new work.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) error {
	if s.draining.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, readyzBody{Status: "draining"})
		return nil
	}
	WriteJSON(w, http.StatusOK, readyzBody{Status: "ready"})
	return nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.refreshStoreBytes()
	s.metricsMu.Lock()
	defer s.metricsMu.Unlock()
	s.inst.uptime.Set(time.Since(s.start).Seconds())
	s.runtime.Collect()
	return s.registry.WritePrometheus(w)
}

// handleTraces serves tail capture: full span trees of the slowest and
// errored requests since boot. With no tracer configured the snapshot is
// empty rather than an error, so dashboards can poll unconditionally.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) error {
	WriteJSON(w, http.StatusOK, s.tracer.TailSnapshot())
	return nil
}

// traceJSON writes a 200 JSON response under an encode_response span, the
// last stage of every successful request.
func traceJSON(w http.ResponseWriter, r *http.Request, v any) {
	sp := tracing.FromContext(r.Context()).Child(StageEncode)
	WriteJSON(w, http.StatusOK, v)
	sp.End()
}
