// Command ccrpd is the compression-and-simulation daemon: the paper's
// host-side toolchain (train a coder, compress a program, predict
// execution cost) served over HTTP/JSON by internal/server.
//
// Usage:
//
//	ccrpd [-addr :8642] [-store DIR] [-sim-workers N] [-max-body 16777216]
//	      [-train-timeout 60s] [-compress-timeout 30s] [-sim-timeout 120s]
//	      [-trace spans.jsonl] [-trace-tail 16] [-drain 15s] [-version]
//
// /v1/decompress expands the lines of one request in turn on the
// request's goroutine; concurrent requests are what spread decode
// across CPUs.
//
// A trained coder stays resident for the process lifetime; it is a
// resource the client that trained it owns. The ROM of a named workload
// is built once per coder and alignment and shared; text a client sends
// is compressed for that request alone and kept nowhere, so memory does
// not grow with compress traffic.
//
// With -store, trained coders persist under DIR (server.Store), one file
// per coder id, and the daemon warm-starts on boot: every stored coder is
// verified, re-registered, and served without retraining — the serving
// analogue of the paper's ROMs surviving power cycles. An id this node
// has not registered is looked up in DIR by its file name before a 404,
// so nodes sharing DIR serve each other's coders. ROM images never
// persist; they rebuild from the coder on demand.
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
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"ccrp/internal/cliutil"
	"ccrp/internal/server"
	"ccrp/internal/tracing"
)

func main() {
	addr := flag.String("addr", ":8642", "listen address")
	storeDir := flag.String("store", "", "persist trained coders under this directory and warm-start from it on boot")
	simWorkers := flag.Int("sim-workers", 0, "concurrent simulate runs (0 = NumCPU)")
	maxBody := flag.Int64("max-body", 0, "request body limit in bytes (0 = 16 MiB)")
	trainTimeout := flag.Duration("train-timeout", 0, "POST /v1/coders deadline (0 = 60s)")
	compressTimeout := flag.Duration("compress-timeout", 0, "compress/decompress deadline (0 = 30s)")
	simTimeout := flag.Duration("sim-timeout", 0, "POST /v1/simulate deadline (0 = 120s)")
	traceOut := flag.String("trace", "", "append JSONL span records to this file (- for stderr)")
	traceTail := flag.Int("trace-tail", tracing.DefaultTailSlow, "slowest request trees retained for GET /debug/traces")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown drain window")
	version := cliutil.RegisterVersionFlag(flag.CommandLine)
	flag.Parse()
	if cliutil.PrintVersion(os.Stdout, "ccrpd", version) {
		return
	}

	// Tracing is always on: the tail capture behind GET /debug/traces
	// costs only the slowest-N span trees.
	tracer, err := cliutil.OpenTracer(*traceOut, *traceTail)
	if err != nil {
		fatal(err)
	}
	defer tracer.Close()
	cfg := server.Config{
		MaxBodyBytes:    *maxBody,
		SimWorkers:      *simWorkers,
		TrainTimeout:    *trainTimeout,
		CompressTimeout: *compressTimeout,
		SimulateTimeout: *simTimeout,
		Version:         cliutil.Version(),
		Tracer:          tracer,
	}
	if *storeDir != "" {
		if cfg.Store, err = server.OpenStore(*storeDir); err != nil {
			fatal(err)
		}
	}

	svc := server.New(cfg)
	if cfg.Store != nil {
		// Warm start before the listener opens: the first request already
		// sees every stored coder. A failed enumeration is fatal — an
		// operator who asked for persistence should not silently run cold.
		n, err := svc.WarmStart(context.Background())
		if err != nil {
			fatal(fmt.Errorf("warm start: %w", err))
		}
		fmt.Fprintf(os.Stderr, "ccrpd: warm start: %d coders from %s\n", n, *storeDir)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "ccrpd %s listening on %s\n", cliutil.Version(), ln.Addr())
	if err := cliutil.Serve(cliutil.SignalContext(), "ccrpd", ln, svc.Handler(), *drain, svc.BeginDrain); err != nil {
		fatal(err)
	}
}

// fatal reports err and exits 1.
func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ccrpd: %v\n", err)
	os.Exit(1)
}
