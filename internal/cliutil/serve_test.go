package cliutil_test

import (
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"ccrp/internal/cliutil"
	"ccrp/internal/server"
)

// TestServeDrains pins the drain order ccrpd and ccrp-router share:
// cancelling the context flips /readyz to 503 while the listener still
// accepts (so a router's probe sees the node leave), an in-flight
// request then finishes with 200, and Serve returns nil.
func TestServeDrains(t *testing.T) {
	svc := server.New(server.Config{})
	entered, release := make(chan struct{}), make(chan struct{})
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "done")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	readyzAtDrain := make(chan int, 1)
	beginDrain := func() {
		svc.BeginDrain()
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			readyzAtDrain <- 0 // the listener closed before readiness flipped
			return
		}
		resp.Body.Close()
		readyzAtDrain <- resp.StatusCode
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- cliutil.Serve(ctx, io.Discard, "test", ln, mux, 10*time.Second, beginDrain) }()

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain = %d, want 200", resp.StatusCode)
	}
	inflight := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Get(base + "/slow")
		if err != nil {
			t.Error(err)
		}
		inflight <- resp
	}()
	<-entered

	cancel()
	if got := <-readyzAtDrain; got != http.StatusServiceUnavailable {
		t.Fatalf("readyz at drain start = %d, want 503 over a still-open listener", got)
	}
	close(release)
	resp = <-inflight
	if resp == nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request across the drain = %v, want 200", resp)
	}
	resp.Body.Close()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve = %v, want nil after a complete drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after the drain")
	}
}
