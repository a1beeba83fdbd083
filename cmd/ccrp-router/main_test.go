package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccrp/internal/cliutil"
	"ccrp/internal/server"
	"ccrp/internal/tracing"
)

// watch reads the router's stderr line by line. It sends the address of
// the "listening on ADDR, fleet ..." line on addr, and the whole text on
// the returned channel once r ends.
func watch(r io.Reader, addr chan<- string) <-chan string {
	text := make(chan string, 1)
	go func() {
		var log strings.Builder
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			fmt.Fprintln(&log, sc.Text())
			if _, rest, ok := strings.Cut(sc.Text(), " listening on "); ok {
				addr <- strings.TrimSuffix(strings.Fields(rest)[0], ",")
			}
		}
		text <- log.String()
	}()
	return text
}

// backend is one in-process ccrpd node for the router to front; it
// returns the node's host:port.
func backend(t *testing.T) string {
	t.Helper()
	node := httptest.NewServer(server.New(server.Config{}).Handler())
	t.Cleanup(node.Close)
	return strings.TrimPrefix(node.URL, "http://")
}

// call sends body to url (a GET when body is empty), requires a 200 and
// decodes the JSON reply into out unless out is nil. It returns the
// reply's header and body.
func call(t *testing.T, url, body string, out any) (http.Header, []byte) {
	t.Helper()
	var resp *http.Response
	var err error
	if body == "" {
		resp, err = http.Get(url)
	} else {
		resp, err = http.Post(url, "application/json", strings.NewReader(body))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s: %s", url, resp.Status, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s: %v in %s", url, err, raw)
		}
	}
	return resp.Header, raw
}

// TestRoute runs ccrp-router with -trace in front of one ccrpd node and
// checks what its binary serves: the node is up, a compress through the
// router is byte-identical to the node's own answer and names the node
// in X-Ccrp-Backend, and the router counts it. Cancelling the context
// stands in for SIGTERM; the span file then holds the request.
func TestRoute(t *testing.T) {
	node := backend(t)
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	args := []string{"-addr", "127.0.0.1:0", "-fleet", node, "-trace", spans, "-drain", "10s"}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	code := make(chan int, 1)
	go func() {
		code <- run(ctx, args, io.Discard, pw)
		pw.Close()
	}()
	addr := make(chan string, 1)
	logc := watch(pr, addr)
	var base string
	select {
	case a := <-addr:
		base = "http://" + a
	case log := <-logc:
		t.Fatalf("ccrp-router exited %d before listening:\n%s", <-code, log)
	}

	var health struct {
		Status  string
		NodesUp int `json:"nodes_up"`
	}
	call(t, base+"/healthz", "", &health)
	if health.Status != "ok" || health.NodesUp != 1 {
		t.Errorf("healthz = %+v, want ok with 1 node up", health)
	}

	var coder struct{ ID string }
	call(t, "http://"+node+"/v1/coders", `{"kind":"preselected"}`, &coder)
	req := `{"coder_id":"` + coder.ID + `","workload":"eightq"}`
	_, direct := call(t, "http://"+node+"/v1/compress", req, nil)
	hdr, routed := call(t, base+"/v1/compress", req, nil)
	if !bytes.Equal(routed, direct) {
		t.Error("compress through the router differs from the node's own answer")
	}
	if got := hdr.Get("X-Ccrp-Backend"); got != node {
		t.Errorf("X-Ccrp-Backend = %q, want %q", got, node)
	}
	_, prom := call(t, base+"/metrics", "", nil)
	if line := `ccrp_router_requests_total{node="` + node + `"} 1`; !bytes.Contains(prom, []byte(line+"\n")) {
		t.Errorf("metrics lack %q:\n%s", line, prom)
	}

	cancel()
	log := <-logc
	if c := <-code; c != 0 || !strings.Contains(log, "ccrp-router: draining for up to 10s\n") || !strings.Contains(log, "ccrp-router: drained\n") {
		t.Fatalf("exit %d after cancel, want 0 after a 10s drain window; stderr:\n%s", c, log)
	}

	f, err := os.Open(spans)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := tracing.ReadRecords(f)
	if err != nil {
		t.Fatal(err)
	}
	routes := map[any]bool{}
	for _, r := range recs {
		if r.Stage == "request" {
			routes[r.Attrs["route"]] = true
		}
	}
	if !routes["/v1/compress"] {
		t.Errorf("span file holds requests for %v, want /v1/compress among them", routes)
	}
}

// TestFlags: the flags that only restated cluster's constants are gone,
// so each is a usage error that routes nothing; so is a missing -fleet,
// and a -fleet that names a node twice. The context is already done, so
// a row that wrongly starts the router drains at once instead of
// serving.
func TestFlags(t *testing.T) {
	type usage struct {
		args   []string
		stderr string
	}
	cases := []usage{
		{nil, "-fleet requires at least one host:port"},
		{[]string{"-fleet", " , "}, "-fleet requires at least one host:port"},
		{[]string{"-addr", "127.0.0.1:0", "-fleet", "127.0.0.1:1, 127.0.0.1:1,127.0.0.1:2"}, "-fleet names 127.0.0.1:1 twice"},
	}
	for _, f := range []string{"probe-interval", "probe-timeout", "fail-threshold", "recover-threshold",
		"forward-timeout", "max-attempts", "backoff", "max-body", "trace-tail"} {
		cases = append(cases, usage{[]string{"-fleet", "127.0.0.1:1", "-" + f, "1"}, "flag provided but not defined: -" + f})
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(done, c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", c.args, code)
		}
		if !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("%q: stderr %q, want it to contain %q", c.args, stderr.String(), c.stderr)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: wrote to stdout: %q", c.args, stdout.String())
		}
	}
}

// TestVersion: -version prints to the given stdout and succeeds.
func TestVersion(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-version"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if want := "ccrp-router " + cliutil.Version() + "\n"; stdout.String() != want {
		t.Errorf("stdout %q, want %q", stdout.String(), want)
	}
}
