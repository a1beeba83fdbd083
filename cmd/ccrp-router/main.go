// Command ccrp-router is the fleet gateway: it fronts a set of ccrpd
// nodes and routes every /v1/* request to the node that owns the
// request's coder id on a consistent-hash ring, failing over along the
// ring's successor order when a node is down (cluster.Router).
//
// Usage:
//
//	ccrp-router -fleet host:8642,host:8643,host:8644 [-addr :8640]
//	            [-trace spans.jsonl] [-drain 15s] [-version]
//
// -fleet names each node once. The ring is built once from it, and the
// probe and retry policy are cluster's constants: a probe every 500 ms
// with a 2 s deadline, a node down after 3 consecutive failures and up
// again after 2 probe successes, and up to 3 attempts per request with
// a 30 s deadline each and backoff from 25 ms. A request body may hold
// server.MaxBodyBytes (16 MiB), the limit of every ccrpd, and GET
// /debug/traces keeps the 16 slowest request trees.
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
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"strings"
	"time"

	"ccrp/internal/cliutil"
	"ccrp/internal/cluster"
)

func main() {
	os.Exit(run(cliutil.SignalContext(), os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and routes to the fleet until ctx is done, then
// drains. Progress, starting with the "listening on ADDR" line, goes to
// stderr. It returns the exit status: 0 after -version or a complete
// drain, 2 for a bad command line, 1 when the router cannot start or its
// drain fails.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccrp-router", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8640", "listen address")
	fleet := fs.String("fleet", "", "comma-separated backend host:port list (required)")
	traceOut := fs.String("trace", "", "append JSONL span records to this file (- for stderr)")
	drain := fs.Duration("drain", 15*time.Second, "graceful-shutdown drain window")
	version := cliutil.RegisterVersionFlag(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if cliutil.PrintVersion(stdout, "ccrp-router", version) {
		return 0
	}

	var nodes []string
	for _, n := range strings.Split(*fleet, ",") {
		if n = strings.TrimSpace(n); n == "" {
			continue
		}
		if slices.Contains(nodes, n) {
			fmt.Fprintf(stderr, "ccrp-router: -fleet names %s twice\n", n)
			return 2
		}
		nodes = append(nodes, n)
	}
	if len(nodes) == 0 {
		fmt.Fprintln(stderr, "ccrp-router: -fleet requires at least one host:port")
		return 2
	}
	if err := route(ctx, stderr, *addr, nodes, *traceOut, *drain); err != nil {
		fmt.Fprintf(stderr, "ccrp-router: %v\n", err)
		return 1
	}
	return 0
}

// route listens on addr and forwards to nodes until ctx is done.
func route(ctx context.Context, stderr io.Writer, addr string, nodes []string, traceOut string, drain time.Duration) error {
	tracer, err := cliutil.OpenTracer(traceOut, stderr)
	if err != nil {
		return err
	}
	defer tracer.Close()
	rt := cluster.NewRouter(nodes, tracer, func(node string, up bool) {
		state := "down"
		if up {
			state = "up"
		}
		fmt.Fprintf(stderr, "ccrp-router: node %s is %s\n", node, state)
	})

	// Probe every node once before the listener opens, then each interval.
	ctx, cancel := context.WithCancel(ctx)
	rt.ProbeRound(ctx)
	probing := make(chan struct{})
	go func() {
		defer close(probing)
		rt.Run(ctx)
	}()
	defer func() { cancel(); <-probing }() // stop the prober before route returns

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "ccrp-router %s listening on %s, fleet %s (%d/%d up)\n",
		cliutil.Version(), ln.Addr(), strings.Join(nodes, ","), rt.UpCount(), len(nodes))
	return cliutil.Serve(ctx, stderr, "ccrp-router", ln, rt.Handler(), drain, rt.BeginDrain)
}
