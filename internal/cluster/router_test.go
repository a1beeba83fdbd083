package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ccrp/internal/server"
	"ccrp/internal/tracing"
)

// TestRouterOwnErrorsAndReadiness: failures the router generates itself
// (the backend never answered) come back in the service's error
// taxonomy and leave their code on the request's root span; an inbound
// trace id is adopted; /readyz follows drain and fleet health; and
// /debug/traces serves the errored request trees.
func TestRouterOwnErrorsAndReadiness(t *testing.T) {
	sink := &spanSink{}
	backends, rt := newFleet(t, 2, tracing.New(tracing.Config{Sink: sink}))
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	send := func(body string, wantStatus int, wantCode string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/compress", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		const tid = "00112233445566778899aabbccddeeff"
		req.Header.Set(server.TraceHeader, tid)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb struct {
			Error struct{ Code string } `json:"error"`
		}
		if resp.StatusCode != wantStatus {
			t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
		}
		if got := resp.Header.Get(server.TraceHeader); got != tid {
			t.Errorf("response trace id = %q, want the inbound %q", got, tid)
		}
		if wantCode == "" {
			if resp.Header.Get(BackendHeader) == "" {
				t.Error("relayed answer carries no backend header")
			}
			return
		}
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error.Code != wantCode {
			t.Fatalf("error body code = %q (%v), want %q", eb.Error.Code, err, wantCode)
		}
		var root *tracing.Record
		for _, rec := range sink.trace(tid) {
			if rec.Parent == "" {
				root = &rec
			}
		}
		if root == nil || root.Attrs["error_code"] != wantCode || root.Attrs["status"] != int64(wantStatus) {
			t.Errorf("root span = %+v, want error_code %q and status %d", root, wantCode, wantStatus)
		}
	}

	send(`{}`, http.StatusOK, "")
	send(strings.Repeat("x", server.MaxBodyBytes+1), http.StatusRequestEntityTooLarge, server.CodePayloadTooLarge)

	readyz := func(want int) {
		t.Helper()
		resp, err := http.Get(front.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("readyz = %d, want %d", resp.StatusCode, want)
		}
	}
	readyz(http.StatusOK)

	for _, b := range backends {
		b.ts.Close()
	}
	send(`{}`, http.StatusBadGateway, "bad_gateway")
	for _, b := range backends {
		for rt.health.healthy(b.node) {
			rt.health.reportFailure(b.node, nil, false)
		}
	}
	readyz(http.StatusServiceUnavailable) // no backends up

	var snap tracing.TailSnapshot
	getJSON(t, front.URL+"/debug/traces", &snap)
	if len(snap.Errored) == 0 || snap.Errored[0].Stage != stageRequest {
		t.Errorf("tail capture holds %d errored trees, want the failed requests rooted at %q", len(snap.Errored), stageRequest)
	}

	rt.BeginDrain()
	readyz(http.StatusServiceUnavailable)
}

// TestRouterRetriesBodyCutMidway: an owner that sends its 200 status and
// hangs up mid-body has failed the attempt, as if it had refused the
// connection. The client gets the successor's whole 200, never the
// owner's truncated one, and the owner gets an error count.
func TestRouterRetriesBodyCutMidway(t *testing.T) {
	routeAroundOwner(t, "cut-mid-body", func(owner *testBackend, _ *Router) { owner.cut = true })
}

// TestRouterRetriesHungOwner: an owner that takes the request and never
// answers fails the attempt when the router's per-attempt deadline
// passes, and the request moves on to the successor.
func TestRouterRetriesHungOwner(t *testing.T) {
	routeAroundOwner(t, "hung-owner", func(owner *testBackend, rt *Router) {
		owner.hang = true
		rt.timeout = 50 * time.Millisecond
	})
}

// TestRouterRetriesDroppedConnection: an owner that hangs up before it
// sends a header has failed the attempt like one that refused the
// connection.
func TestRouterRetriesDroppedConnection(t *testing.T) {
	routeAroundOwner(t, "dropped-connection", func(owner *testBackend, _ *Router) { owner.drop = true })
}

// routeAroundOwner sends one compress request for coderID through a
// router whose owning backend breaks as breakOwner scripts it. The client
// must get the successor's whole 200, and the owner one error count.
func routeAroundOwner(t *testing.T, coderID string, breakOwner func(owner *testBackend, rt *Router)) {
	t.Helper()
	backends, rt := newFleet(t, 2, nil)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	body := fmt.Sprintf(`{"coder_id":%q}`, coderID)
	key, _ := server.RouteKey(http.MethodPost, "/v1/compress", []byte(body))
	order := rt.ring.order(key)
	breakOwner(byNode(backends)[order[0]], rt)

	resp, err := http.Post(front.URL+"/v1/compress", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || string(got) != order[1] {
		t.Fatalf("client got %d %q (read error %v), want the successor's whole 200 %q",
			resp.StatusCode, got, err, order[1])
	}
	if node := resp.Header.Get(BackendHeader); node != order[1] {
		t.Errorf("answered by %q, want the successor %q", node, order[1])
	}
	if n := metric(t, front.URL, fmt.Sprintf("ccrp_router_node_errors_total{node=%q}", order[0])); n != 1 {
		t.Errorf("owner error count = %g, want 1", n)
	}
}
