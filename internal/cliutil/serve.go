package cliutil

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ccrp/internal/metrics"
	"ccrp/internal/tracing"
)

// SignalContext is cancelled by the first SIGINT or SIGTERM. Default
// signal handling is then restored, so a second signal during the drain
// kills the process at once.
func SignalContext() context.Context {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	return ctx
}

// Serve answers HTTP on ln with h until ctx is done, then drains:
// beginDrain runs first (a daemon's /readyz turns 503, so a fronting
// router probes it out of rotation), then the listener closes and
// in-flight requests get up to drain to finish. It returns nil after a
// complete drain, and the listener's error if serving fails first.
// Progress goes to stderr prefixed with name.
func Serve(ctx context.Context, stderr io.Writer, name string, ln net.Listener, h http.Handler, drain time.Duration, beginDrain func()) error {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	beginDrain()
	fmt.Fprintf(stderr, "%s: draining for up to %s\n", name, drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		srv.Close()
		return fmt.Errorf("drain incomplete: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintf(stderr, "%s: drained\n", name)
	return nil
}

// OpenTracer builds a daemon's tracer: tail capture of the slowest
// request trees always, plus a JSONL span stream when path is set ("-"
// for stderr, otherwise appended to the file). Close the tracer at exit
// to flush the stream.
func OpenTracer(path string, stderr io.Writer) (*tracing.Tracer, error) {
	var cfg tracing.Config
	switch path {
	case "":
	case "-":
		// Hide Close from the sink: closing the tracer must not close stderr.
		cfg.Sink = metrics.NewJSONLSink[tracing.Record](struct{ io.Writer }{stderr})
	default:
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("trace sink: %w", err)
		}
		cfg.Sink = metrics.NewJSONLSink[tracing.Record](f) // the sink owns f
	}
	return tracing.New(cfg), nil
}
