package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccrp/internal/cliutil"
	"ccrp/internal/tracing"
	"ccrp/internal/workload"
)

// watch reads a daemon's stderr line by line. It sends the address of
// the "listening on ADDR" line on addr, and the whole text on the
// returned channel once r ends.
func watch(r io.Reader, addr chan<- string) <-chan string {
	text := make(chan string, 1)
	go func() {
		var log strings.Builder
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			fmt.Fprintln(&log, sc.Text())
			if _, rest, ok := strings.Cut(sc.Text(), " listening on "); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
		text <- log.String()
	}()
	return text
}

// daemon is one in-process run of ccrpd, serving at base until the
// context it was started with is cancelled.
type daemon struct {
	base string
	code <-chan int    // run's exit status
	log  <-chan string // everything run wrote to stderr, once it returns
}

// start runs ccrpd with args in process and waits until it listens.
func start(t *testing.T, ctx context.Context, args ...string) *daemon {
	t.Helper()
	pr, pw := io.Pipe()
	code := make(chan int, 1)
	go func() {
		code <- run(ctx, args, io.Discard, pw)
		pw.Close()
	}()
	addr := make(chan string, 1)
	d := &daemon{code: code, log: watch(pr, addr)}
	select {
	case a := <-addr:
		d.base = "http://" + a
	case log := <-d.log:
		t.Fatalf("ccrpd %q exited %d before listening:\n%s", args, <-code, log)
	}
	return d
}

// stop waits for the daemon to return after its context was cancelled
// and reports its exit status and stderr.
func (d *daemon) stop() (int, string) {
	return <-d.code, <-d.log
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

// TestServe runs ccrpd with -store and -trace as an operator would and
// checks what its binary serves: health, a trained coder that the store
// lists, a compress whose ROM is byte-identical to the one ccpack writes
// for the same workload, a decompress round trip, a simulate call and
// the metrics. Cancelling the context stands in for SIGTERM; the span
// file then holds every stage the requests went through. A second run
// over the same store serves the coder without building it: it reads
// the coder from the store once, on first use.
func TestServe(t *testing.T) {
	dir := t.TempDir()
	store, spans := filepath.Join(dir, "store"), filepath.Join(dir, "spans.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := start(t, ctx, "-addr", "127.0.0.1:0", "-store", store, "-trace", spans, "-drain", "10s")

	var health struct{ Status string }
	call(t, d.base+"/healthz", "", &health)
	if health.Status != "ok" {
		t.Errorf("healthz status %q, want ok", health.Status)
	}

	var coder struct{ ID string }
	call(t, d.base+"/v1/coders", `{"kind":"preselected"}`, &coder)
	var arts struct {
		Store     bool
		Artifacts []struct{ ID string }
	}
	call(t, d.base+"/v1/artifacts", "", &arts)
	if !arts.Store || len(arts.Artifacts) != 1 || arts.Artifacts[0].ID != coder.ID {
		t.Errorf("artifacts = %+v, want exactly the stored coder %s", arts, coder.ID)
	}

	var comp struct {
		ROMB64 string `json:"rom_b64"`
	}
	call(t, d.base+"/v1/compress", `{"coder_id":"`+coder.ID+`","workload":"eightq"}`, &comp)
	rom, err := base64.StdEncoding.DecodeString(comp.ROMB64)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "ccpack", "testdata", "eightq.rom"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rom, want) {
		t.Errorf("served ROM (%d bytes) differs from ccpack's testdata/eightq.rom (%d bytes)", len(rom), len(want))
	}

	var dec struct {
		TextB64 string `json:"text_b64"`
	}
	call(t, d.base+"/v1/decompress", `{"rom_b64":"`+comp.ROMB64+`"}`, &dec)
	wl, _ := workload.ByName("eightq")
	text, err := wl.Text()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := base64.StdEncoding.DecodeString(dec.TextB64); err != nil || !bytes.Equal(got, text) {
		t.Errorf("decompressed text (%d bytes, %v) is not eightq's %d bytes", len(got), err, len(text))
	}

	var sim struct {
		RelativePerformance float64 `json:"relative_performance"`
	}
	call(t, d.base+"/v1/simulate", `{"workload":"eightq","cache_bytes":1024}`, &sim)
	if sim.RelativePerformance <= 0 {
		t.Errorf("simulate relative performance %g, want > 0", sim.RelativePerformance)
	}

	_, prom := call(t, d.base+"/metrics", "", nil)
	for _, line := range []string{`ccrpd_requests_total{route="/v1/compress"} 1`, "ccrpd_coder_builds_total 1"} {
		if !bytes.Contains(prom, []byte(line+"\n")) {
			t.Errorf("metrics lack %q:\n%s", line, prom)
		}
	}

	cancel()
	code, log := d.stop()
	if code != 0 || !strings.Contains(log, "ccrpd: draining for up to 10s\n") || !strings.Contains(log, "ccrpd: drained\n") {
		t.Fatalf("exit %d after cancel, want 0 after a 10s drain window; stderr:\n%s", code, log)
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
	a := tracing.Analyze(recs, 0)
	stages := map[string]bool{}
	for _, s := range a.Stages {
		stages[s.Stage] = true
	}
	for _, s := range []string{"request", "compress", "decompress", "sim_run"} {
		if !stages[s] {
			t.Errorf("span file lacks stage %s (has %v)", s, stages)
		}
	}
	if a.Roots == 0 || a.Coverage.Roots == 0 {
		t.Errorf("span file has %d roots, %d decomposed; want both > 0", a.Roots, a.Coverage.Roots)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	d = start(t, ctx, "-addr", "127.0.0.1:0", "-store", store)
	var again struct {
		ROMB64 string `json:"rom_b64"`
	}
	call(t, d.base+"/v1/compress", `{"coder_id":"`+coder.ID+`","workload":"eightq"}`, &again)
	call(t, d.base+"/v1/coders/"+coder.ID, "", nil)
	if again.ROMB64 != comp.ROMB64 {
		t.Error("second run over the store served a different ROM")
	}
	_, prom = call(t, d.base+"/metrics", "", nil)
	for _, line := range []string{"ccrpd_coder_builds_total 0", "ccrpd_store_hits_total 1"} {
		if !bytes.Contains(prom, []byte(line+"\n")) {
			t.Errorf("second run over the store: metrics lack %q:\n%s", line, prom)
		}
	}
	cancel()
	if code, log := d.stop(); code != 0 {
		t.Errorf("second run over the store: exit %d; stderr:\n%s", code, log)
	}
}

// TestFlags: the flags that only restated the server's limits are
// gone, so each is a usage error that serves nothing; so is a bad value.
// An address that cannot be bound exits 1.
func TestFlags(t *testing.T) {
	type failure struct {
		args   []string
		code   int
		stderr string
	}
	cases := []failure{
		{[]string{"-drain", "soon"}, 2, `invalid value "soon" for flag -drain`},
		{[]string{"-addr", "127.0.0.1:-1"}, 1, "ccrpd: listen tcp"},
	}
	for _, f := range []string{"sim-workers", "max-body", "train-timeout", "compress-timeout", "sim-timeout", "trace-tail"} {
		cases = append(cases, failure{[]string{"-" + f, "1"}, 2, "flag provided but not defined: -" + f})
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), c.args, &stdout, &stderr); code != c.code {
			t.Errorf("%q: exit %d, want %d", c.args, code, c.code)
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
	if want := "ccrpd " + cliutil.Version() + "\n"; stdout.String() != want {
		t.Errorf("stdout %q, want %q", stdout.String(), want)
	}
}
