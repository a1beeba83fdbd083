// Command ccrpd is the compression-and-simulation daemon: the paper's
// host-side toolchain (train a coder, compress a program, predict
// execution cost) served over HTTP/JSON by internal/server.
//
// Usage:
//
//	ccrpd [-addr :8642] [-store DIR] [-trace spans.jsonl] [-drain 15s] [-version]
//
// Request limits and deadlines are internal/server's constants: a 16 MiB
// body (server.MaxBodyBytes), 256 items per :batch request, 60 s to
// train, 30 s to compress or decompress, 120 s to simulate, and NumCPU
// concurrent simulate runs. GET /debug/traces keeps the 16 slowest
// request trees.
//
// /v1/decompress expands the lines of one request in turn on the
// request's goroutine; concurrent requests are what spread decode
// across CPUs.
//
// A trained coder stays resident for the process lifetime; it is a
// resource the client that trained it owns. A training that fails is
// answered and not kept. The ROM of a named workload is built once per
// coder and alignment and shared; text a client sends is compressed for
// that request alone and kept nowhere, so memory does not grow with
// compress traffic.
//
// With -store, trained coders persist under DIR (server.Store), one file
// per coder id, and survive a restart — the serving analogue of the
// paper's ROMs surviving power cycles. A coder this process does not
// hold is read from DIR by its file name on first use, verified, and
// then held, so a restarted daemon serves every stored coder without
// retraining, and nodes sharing DIR serve each other's coders. A DIR
// that cannot be created or listed stops the daemon at boot. ROM images
// never persist; they rebuild from the coder on demand.
//
// -trace streams every finished span as JSONL; each request's root span
// is its record (method, route, status, duration, error code, trace id).
//
// The daemon drains gracefully on SIGINT/SIGTERM (cliutil.Serve): /readyz
// flips to 503 (so a fronting ccrp-router takes the node out of
// rotation), the listener stops accepting, in-flight requests get -drain
// to finish, then the process exits 0. A second signal aborts immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"ccrp/internal/cliutil"
	"ccrp/internal/server"
)

func main() {
	os.Exit(run(cliutil.SignalContext(), os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and serves until ctx is done, then drains. Progress,
// starting with the "listening on ADDR" line, goes to stderr. It returns
// the exit status: 0 after -version or a complete drain, 2 for a bad
// command line, 1 when the daemon cannot start or its drain fails.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccrpd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8642", "listen address")
	storeDir := fs.String("store", "", "persist trained coders under this directory, and read each from it on first use after a restart")
	traceOut := fs.String("trace", "", "append JSONL span records to this file (- for stderr)")
	drain := fs.Duration("drain", 15*time.Second, "graceful-shutdown drain window")
	version := cliutil.RegisterVersionFlag(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if cliutil.PrintVersion(stdout, "ccrpd", version) {
		return 0
	}
	if err := serve(ctx, stderr, *addr, *storeDir, *traceOut, *drain); err != nil {
		fmt.Fprintf(stderr, "ccrpd: %v\n", err)
		return 1
	}
	return 0
}

// serve opens the store in storeDir when it is set, listens on addr and
// serves until ctx is done.
func serve(ctx context.Context, stderr io.Writer, addr, storeDir, traceOut string, drain time.Duration) error {
	// Tracing is always on: the tail capture behind GET /debug/traces
	// costs only the slowest-N span trees.
	tracer, err := cliutil.OpenTracer(traceOut, stderr)
	if err != nil {
		return err
	}
	defer tracer.Close()
	cfg := server.Config{Tracer: tracer}
	if storeDir != "" {
		if cfg.Store, err = server.OpenStore(storeDir); err != nil {
			return err
		}
	}

	svc := server.New(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "ccrpd %s listening on %s\n", cliutil.Version(), ln.Addr())
	return cliutil.Serve(ctx, stderr, "ccrpd", ln, svc.Handler(), drain, svc.BeginDrain)
}
