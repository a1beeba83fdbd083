// Command ccrp-router is the fleet gateway: it fronts a set of ccrpd
// nodes and routes every /v1/* request to the node that owns the
// request's coder id on a consistent-hash ring, failing over along the
// ring's successor order when a node is down (cluster.Router).
//
// Usage:
//
//	ccrp-router -fleet host:8642,host:8643,host:8644 [-addr :8640]
//	            [-probe-interval 500ms] [-probe-timeout 2s]
//	            [-fail-threshold 3] [-recover-threshold 2]
//	            [-forward-timeout 30s] [-max-attempts 3] [-backoff 25ms]
//	            [-max-body 16777216]
//	            [-trace spans.jsonl] [-trace-tail 16] [-drain 15s]
//	            [-version]
//
// The ring is the serving analogue of the paper's LAT: an indirection
// table in front of the real storage that turns "which node holds this
// coder" into a pure function of the id, so no directory service is
// needed and every router instance computes the same answer. Health
// checking probes each node's /readyz — a draining ccrpd (SIGTERM
// received, /readyz 503) leaves the rotation before its listener
// closes, and a kill -9'd node is ejected after a few failed forwards.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"ccrp/internal/cliutil"
	"ccrp/internal/cluster"
	"ccrp/internal/tracing"
)

func main() {
	addr := flag.String("addr", ":8640", "listen address")
	fleet := flag.String("fleet", "", "comma-separated backend host:port list (required)")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "active health-probe interval")
	probeTimeout := flag.Duration("probe-timeout", 2*time.Second, "per-probe deadline")
	failThreshold := flag.Int("fail-threshold", 3, "consecutive failures that mark a node down")
	recoverThreshold := flag.Int("recover-threshold", 2, "consecutive probe successes that mark a node up")
	forwardTimeout := flag.Duration("forward-timeout", 30*time.Second, "per-attempt forward deadline")
	maxAttempts := flag.Int("max-attempts", 3, "total forward attempts per request across nodes")
	backoff := flag.Duration("backoff", 25*time.Millisecond, "initial retry backoff (doubles per attempt)")
	maxBody := flag.Int64("max-body", 16<<20, "request body limit in bytes")
	traceOut := flag.String("trace", "", "append JSONL span records to this file (- for stderr)")
	traceTail := flag.Int("trace-tail", tracing.DefaultTailSlow, "slowest request trees retained for GET /debug/traces")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown drain window")
	version := cliutil.RegisterVersionFlag(flag.CommandLine)
	flag.Parse()
	if cliutil.PrintVersion(os.Stdout, "ccrp-router", version) {
		return
	}

	var nodes []string
	for _, n := range strings.Split(*fleet, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodes = append(nodes, n)
		}
	}
	if len(nodes) == 0 {
		fmt.Fprintln(os.Stderr, "ccrp-router: -fleet requires at least one host:port")
		os.Exit(2)
	}

	ring := cluster.New(cluster.DefaultReplicas, nodes...)
	health := cluster.NewChecker(cluster.CheckerConfig{
		Nodes:            nodes,
		Interval:         *probeInterval,
		Timeout:          *probeTimeout,
		FailThreshold:    *failThreshold,
		RecoverThreshold: *recoverThreshold,
		OnTransition: func(node string, up bool) {
			state := "down"
			if up {
				state = "up"
			}
			fmt.Fprintf(os.Stderr, "ccrp-router: node %s is %s\n", node, state)
		},
	})
	fwd := cluster.NewForwarder(cluster.ForwarderConfig{
		Ring:        ring,
		Health:      health,
		Timeout:     *forwardTimeout,
		MaxAttempts: *maxAttempts,
		Backoff:     *backoff,
		Client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 32,
		}},
	})
	tracer, err := cliutil.OpenTracer(*traceOut, *traceTail)
	if err != nil {
		fatal(err)
	}
	defer tracer.Close()
	rt := cluster.NewRouter(ring, health, fwd, tracer, *maxBody)

	ctx := cliutil.SignalContext()
	// One synchronous probe round before the listener opens: a fleet
	// member that is already dead at boot never takes the first request.
	health.ProbeRound(ctx)
	go health.Run(ctx)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "ccrp-router %s listening on %s, fleet %s (%d/%d up)\n",
		cliutil.Version(), ln.Addr(), strings.Join(nodes, ","), health.UpCount(), len(nodes))
	if err := cliutil.Serve(ctx, "ccrp-router", ln, rt.Handler(), *drain, rt.BeginDrain); err != nil {
		fatal(err)
	}
}

// fatal reports err and exits 1.
func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ccrp-router: %v\n", err)
	os.Exit(1)
}
