// Tests for the gateway in front of a live fleet: three ccrpd backends
// on httptest listeners, each with its own handle on one shared artifact
// store, behind a Router. Killing a node is an abrupt listener close,
// and every wait is bounded polling of router or health state.
package cluster

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccrp/internal/server"
	"ccrp/internal/tracing"
	"ccrp/internal/workload"
)

// spanSink collects span records in memory.
type spanSink struct {
	mu   sync.Mutex
	recs []tracing.Record
}

func (s *spanSink) Emit(rec tracing.Record) {
	s.mu.Lock()
	s.recs = append(s.recs, rec)
	s.mu.Unlock()
}

func (s *spanSink) Close() error { return nil }

// trace returns the records of one trace id.
func (s *spanSink) trace(tid string) []tracing.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []tracing.Record
	for _, rec := range s.recs {
		if rec.Trace == tid {
			out = append(out, rec)
		}
	}
	return out
}

// liveFleet is one in-process deployment: backends by node address,
// their span sinks, and the router in front.
type liveFleet struct {
	rt       *Router
	front    *httptest.Server
	backends map[string]*httptest.Server
	spans    map[string]*spanSink
	rtSpans  *spanSink
}

func bootFleet(t *testing.T) *liveFleet {
	t.Helper()
	dir := t.TempDir()
	f := &liveFleet{
		backends: map[string]*httptest.Server{},
		spans:    map[string]*spanSink{},
		rtSpans:  &spanSink{},
	}
	var nodes []string
	for i := 0; i < 3; i++ {
		store, err := server.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		sink := &spanSink{}
		svc := server.New(server.Config{Store: store, Tracer: tracing.New(tracing.Config{Sink: sink})})
		ts := httptest.NewServer(svc.Handler())
		t.Cleanup(ts.Close)
		node := ts.Listener.Addr().String()
		nodes = append(nodes, node)
		f.backends[node], f.spans[node] = ts, sink
	}
	// The router runs the production policy. Probes are slower than
	// the load, so a killed node is ejected by failed forwards, which
	// the router's metrics attribute to it.
	f.rt = NewRouter(nodes, tracing.New(tracing.Config{Sink: f.rtSpans}), nil)
	ctx, cancel := context.WithCancel(context.Background())
	probing := make(chan struct{})
	go func() {
		f.rt.Run(ctx)
		close(probing)
	}()
	t.Cleanup(func() {
		cancel()
		<-probing
	})
	f.front = httptest.NewServer(f.rt.Handler())
	t.Cleanup(f.front.Close)
	return f
}

// post sends one JSON request through the router and decodes a 200
// answer into out. It returns the answering node and the trace id, and
// is safe to call from load goroutines.
func (f *liveFleet) post(path string, in, out any) (node, tid string, err error) {
	raw, err := json.Marshal(in)
	if err != nil {
		return "", "", err
	}
	resp, err := http.Post(f.front.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", "", err
	}
	node, tid = resp.Header.Get(BackendHeader), resp.Header.Get(server.TraceHeader)
	if resp.StatusCode != http.StatusOK {
		return node, tid, fmt.Errorf("%s: %d %s", path, resp.StatusCode, body)
	}
	return node, tid, json.Unmarshal(body, out)
}

// getJSON decodes a GET answer from url.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
}

// metric reads one sample (name including any label set) from a
// Prometheus scrape of url; absent samples read as 0.
func metric(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			x, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return x
		}
	}
	return 0
}

// waitFor polls cond until it holds, failing the test after 20 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// compressOut and decompressOut are the parts of ccrpd's answers the
// fleet contracts compare.
type compressOut struct {
	OriginalBytes int               `json:"original_bytes"`
	BlocksB64     string            `json:"blocks_b64"`
	ROMB64        string            `json:"rom_b64"`
	Lines         []json.RawMessage `json:"lines"`
}

type decompressOut struct {
	TextB64 string `json:"text_b64"`
}

// sameText checks a decompressed image against the text it came from,
// zero-padded to the line-aligned original size.
func sameText(dec decompressOut, text []byte, originalBytes int) error {
	got, err := base64.StdEncoding.DecodeString(dec.TextB64)
	if err != nil {
		return err
	}
	want := make([]byte, originalBytes)
	copy(want, text)
	if !bytes.Equal(got, want) {
		return fmt.Errorf("decompressed image is not byte-identical")
	}
	return nil
}

// TestFleetFailover holds the fleet's contracts end to end: keyless
// traffic spreads across nodes; one coder id sticks to one node; the
// owner can die mid-load with no client-visible failure; the ring then
// settles on a successor that serves byte-identical output restored from
// the shared store without building the coder; the router's metrics
// name the dead node; and one trace id spans both sides of the hop.
func TestFleetFailover(t *testing.T) {
	f := bootFleet(t)
	var hz healthzBody
	getJSON(t, f.front.URL+"/healthz", &hz)
	if hz.RingNodes != 3 || hz.NodesUp != 3 {
		t.Fatalf("router healthz = %d ring nodes, %d up; want 3 and 3", hz.RingNodes, hz.NodesUp)
	}

	// Training lands on the node that owns the coder it produces.
	var coder struct {
		ID string `json:"id"`
	}
	owner, _, err := f.post("/v1/coders", map[string]string{"kind": "preselected"}, &coder)
	if err != nil {
		t.Fatal(err)
	}
	if want := f.rt.ring.owner(coder.ID); owner != want {
		t.Fatalf("coder trained on %q, ring owner is %q", owner, want)
	}
	eightq, _ := workload.ByName("eightq")
	text, err := eightq.Text()
	if err != nil {
		t.Fatal(err)
	}
	compressReq := map[string]string{"coder_id": coder.ID, "workload": "eightq"}
	var first compressOut
	for i := 0; i < 3; i++ {
		node, _, err := f.post("/v1/compress", compressReq, &first)
		if err != nil {
			t.Fatal(err)
		}
		if node != owner {
			t.Fatalf("compress %d with coder %s answered by %q, want its owner %q", i, coder.ID, node, owner)
		}
	}

	// Keyless traffic spreads: self-describing ROM decompressions carry
	// no coder id, so the ring places them by a hash of the body.
	spread := map[string]int{}
	for i := 0; i < 16; i++ {
		img := bytes.Repeat([]byte{byte(i), 0x24, 0x08, 0x00}, 16)
		var comp compressOut
		if _, _, err := f.post("/v1/compress", map[string]string{
			"coder_id": coder.ID, "text_b64": base64.StdEncoding.EncodeToString(img),
		}, &comp); err != nil {
			t.Fatal(err)
		}
		var dec decompressOut
		node, _, err := f.post("/v1/decompress", map[string]string{"rom_b64": comp.ROMB64}, &dec)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameText(dec, img, comp.OriginalBytes); err != nil {
			t.Fatal(err)
		}
		spread[node]++
	}
	if len(spread) < 2 {
		t.Fatalf("16 keyless requests all landed on %v, want at least 2 nodes", spread)
	}

	// Mixed load: coder-keyed compress and round trips plus keyless
	// decompressions, every answer byte-checked.
	op := func(i int) error {
		if i%3 == 0 {
			var out compressOut
			if _, _, err := f.post("/v1/compress", compressReq, &out); err != nil {
				return err
			}
			if out.BlocksB64 != first.BlocksB64 || out.ROMB64 != first.ROMB64 {
				return fmt.Errorf("compress output changed under load")
			}
			return nil
		}
		req := map[string]any{"rom_b64": first.ROMB64}
		if i%3 == 1 {
			req = map[string]any{"coder_id": coder.ID, "blocks_b64": first.BlocksB64, "lines": first.Lines}
		}
		var dec decompressOut
		if _, _, err := f.post("/v1/decompress", req, &dec); err != nil {
			return err
		}
		return sameText(dec, text, first.OriginalBytes)
	}
	ownerServed := fmt.Sprintf("ccrp_router_requests_total{node=%q}", owner)
	before := metric(t, f.front.URL, ownerServed)
	stop := make(chan struct{})
	var (
		wg       sync.WaitGroup
		ops      atomic.Int64
		mu       sync.Mutex
		failures []error
	)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ops.Add(1)
				if err := op(i); err != nil {
					mu.Lock()
					failures = append(failures, err)
					mu.Unlock()
				}
			}
		}(c)
	}
	waitFor(t, "load to reach the owner", func() bool {
		return metric(t, f.front.URL, ownerServed) > before+2
	})

	// Kill the owner abruptly: no drain, open connections cut.
	victim := f.backends[owner]
	victim.Listener.Close()
	waitFor(t, "the router to eject the owner", func() bool {
		// Cutting again catches a connection accepted just as the
		// listener closed, before the server began tracking it.
		victim.CloseClientConnections()
		var hz healthzBody
		getJSON(t, f.front.URL+"/healthz", &hz)
		return hz.NodesUp == 2 && !f.rt.health.healthy(owner)
	})
	atKill := ops.Load()
	waitFor(t, "load to keep flowing after the ejection", func() bool { return ops.Load() > atKill+8 })
	close(stop)
	wg.Wait()
	if len(failures) != 0 {
		t.Fatalf("%d of %d operations failed across the kill; first: %v", len(failures), ops.Load(), failures[0])
	}

	// The ring settles on the successor, which restores the coder from
	// the shared store: identical bytes, no coder build.
	successor := f.rt.candidates(coder.ID)[0]
	var after compressOut
	node, tid, err := f.post("/v1/compress", compressReq, &after)
	if err != nil {
		t.Fatal(err)
	}
	if node != successor || node == owner {
		t.Fatalf("post-kill compress answered by %q, want the successor %q", node, successor)
	}
	if again, _, err := f.post("/v1/compress", compressReq, &compressOut{}); err != nil || again != successor {
		t.Fatalf("second post-kill compress answered by %q (%v), want %q again", again, err, successor)
	}
	if after.BlocksB64 != first.BlocksB64 || after.ROMB64 != first.ROMB64 {
		t.Fatal("successor output differs from the owner's")
	}
	succURL := f.backends[successor].URL
	if got := metric(t, succURL, "ccrpd_coder_builds_total"); got != 0 {
		t.Errorf("successor built %g coders, want 0 (restored from the store)", got)
	}
	if got := metric(t, succURL, "ccrpd_store_hits_total"); got < 1 {
		t.Error("successor recorded no store hit for the restored coder")
	}

	// The router's metrics name the victim.
	if got := metric(t, f.front.URL, fmt.Sprintf("ccrp_router_node_errors_total{node=%q}", owner)); got < 1 {
		t.Error("no forward errors recorded against the killed owner")
	}
	if got := metric(t, f.front.URL, fmt.Sprintf("ccrp_router_node_up{node=%q}", owner)); got != 0 {
		t.Errorf("killed owner reported up (%g)", got)
	}

	// One trace id spans the hop: the router's request root and forward
	// child, and the successor's own request root.
	var rtRoot, rtForward, backendRoot bool
	for _, rec := range f.rtSpans.trace(tid) {
		rtRoot = rtRoot || rec.Stage == stageRequest && rec.Parent == ""
		rtForward = rtForward || rec.Stage == stageForward && rec.Attrs["node"] == successor
	}
	for _, rec := range f.spans[successor].trace(tid) {
		backendRoot = backendRoot || rec.Stage == server.StageRequest && rec.Parent == ""
	}
	if !rtRoot || !rtForward || !backendRoot {
		t.Errorf("trace %s: router root %v, router forward to %s %v, backend root %v; want all",
			tid, rtRoot, successor, rtForward, backendRoot)
	}
}
