package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ccrp/internal/cliutil"
	"ccrp/internal/core"
	"ccrp/internal/experiments"
	"ccrp/internal/huffman"
	"ccrp/internal/tracing"
	"ccrp/internal/workload"
)

// newTestServer builds a server and its httptest harness.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON round-trips one JSON request.
func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// decodeAs unmarshals a response body, failing the test on mismatch.
func decodeAs[T any](t *testing.T, body []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("response %s does not parse: %v", body, err)
	}
	return v
}

// b64 is the wire form of a response's []byte field in a request's
// base64 string field.
func b64(p []byte) b64Field { return b64Field(base64.StdEncoding.EncodeToString(p)) }

// wantError asserts a response carries the given taxonomy code.
func wantError(t *testing.T, resp *http.Response, body []byte, status int, code string) {
	t.Helper()
	if resp.StatusCode != status {
		t.Errorf("status = %d, want %d (body %s)", resp.StatusCode, status, body)
	}
	eb := decodeAs[errorBody](t, body)
	if eb.Error == nil || eb.Error.Code != code {
		t.Errorf("error body = %s, want code %q", body, code)
	}
}

// held counts what the server keeps: its coders and named workloads'
// ROMs.
func held(s *Server) int { return s.coders.Len() + s.roms.Len() }

// trainPreselected trains the default coder and returns its id.
func trainPreselected(t *testing.T, url string) string {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/coders", trainRequest{Kind: KindPreselected})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("train preselected: %d %s", resp.StatusCode, body)
	}
	return decodeAs[coderInfo](t, body).ID
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
	h := decodeAs[healthzBody](t, body)
	if h.Status != "ok" || h.Version != cliutil.Version() || h.Host.GoVersion == "" {
		t.Errorf("healthz body = %+v", h)
	}
}

func TestErrorTaxonomy(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	t.Run("unknown route is typed 404", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/nonesuch")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		wantError(t, resp, body, http.StatusNotFound, CodeNotFound)
	})

	t.Run("wrong method is typed 405", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/compress")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		wantError(t, resp, body, http.StatusMethodNotAllowed, CodeMethodNotAllowed)
	})

	t.Run("malformed JSON is typed 400", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
			strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		wantError(t, resp, body, http.StatusBadRequest, CodeBadRequest)
	})

	t.Run("oversized body is typed 413", func(t *testing.T) {
		head, tail := `{"kind":"bounded","corpus_b64":["`, `"]}`
		big := head + strings.Repeat("A", MaxBodyBytes+1-len(head)-len(tail)) + tail
		resp, err := http.Post(ts.URL+"/v1/coders", "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		wantError(t, resp, body, http.StatusRequestEntityTooLarge, CodePayloadTooLarge)
	})

	t.Run("unknown workload is typed 404", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+"/v1/simulate", simulateRequest{Workload: "nonesuch"})
		wantError(t, resp, body, http.StatusNotFound, CodeNotFound)
	})

	t.Run("unknown coder id is typed 404", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+"/v1/compress",
			compressRequest{CoderID: "deadbeef", Workload: "eightq"})
		wantError(t, resp, body, http.StatusNotFound, CodeNotFound)
	})

	t.Run("unknown coder kind is typed 400", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+"/v1/coders", trainRequest{Kind: "lzw"})
		wantError(t, resp, body, http.StatusBadRequest, CodeBadRequest)
	})
}

func TestTrainCoderCachedAndSingleFlight(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	resp, body := postJSON(t, ts.URL+"/v1/coders",
		trainRequest{Kind: KindBounded, Workloads: []string{"eightq"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("train: %d %s", resp.StatusCode, body)
	}
	first := decodeAs[coderInfo](t, body)
	if first.Cached {
		t.Error("first training reported cached=true")
	}
	if first.MaxCodeLen == 0 || first.MaxCodeLen > 16 {
		t.Errorf("bounded code MaxCodeLen = %d, want 1..16", first.MaxCodeLen)
	}

	// Same corpus via the other spelling (identical workload text) must
	// hit the cache and return the same id.
	resp, body = postJSON(t, ts.URL+"/v1/coders",
		trainRequest{Kind: KindBounded, Workloads: []string{"eightq"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retrain: %d %s", resp.StatusCode, body)
	}
	second := decodeAs[coderInfo](t, body)
	if second.ID != first.ID {
		t.Errorf("retraining changed the id: %q vs %q", second.ID, first.ID)
	}
	if !second.Cached {
		t.Error("identical retrain reported cached=false")
	}

	// Concurrent identical requests share one single-flight build: the
	// build counter must not exceed the distinct-coder count.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/coders",
				trainRequest{Kind: KindCodePack, Workloads: []string{"eightq"}})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("concurrent train: %d %s", resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()

	s.metricsMu.Lock()
	builds := s.inst.builds.Value()
	s.metricsMu.Unlock()
	if builds > 2 { // bounded + codepack, one build each
		t.Errorf("coder builds = %d, want <= 2 (single-flight broken)", builds)
	}

	// GET /v1/coders/{id} resolves the trained coder.
	resp2, err := http.Get(ts.URL + "/v1/coders/" + first.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	got, _ := io.ReadAll(resp2.Body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("get coder: %d %s", resp2.StatusCode, got)
	}
	if decodeAs[coderInfo](t, got).ID != first.ID {
		t.Errorf("get coder returned wrong id: %s", got)
	}
}

// TestFailedTrainingsNotKept: a training that fails is answered and not
// kept, so failures cannot grow the server's state: 2,000 unknown kinds
// (400) and 2,000 CodePack trainings on corpora too short to train
// (422), each under its own id, leave the coders held and /healthz's
// count where they were.
func TestFailedTrainingsNotKept(t *testing.T) {
	s := New(Config{})
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	healthzCoders := func() int {
		rec := serve(http.MethodGet, "/healthz", nil)
		return decodeAs[healthzBody](t, rec.Body.Bytes()).Coders
	}
	if rec := serve(http.MethodPost, "/v1/coders", []byte(`{"kind":"preselected"}`)); rec.Code != http.StatusOK {
		t.Fatalf("train preselected: %d %s", rec.Code, rec.Body)
	}
	base, baseHealthz := held(s), healthzCoders()
	if baseHealthz != 1 {
		t.Fatalf("/healthz reports %d coders after one training, want 1", baseHealthz)
	}
	for i := 0; i < 2000; i++ {
		body := fmt.Sprintf(`{"kind":"kind-%d","corpus_b64":["AAAA"]}`, i)
		if rec := serve(http.MethodPost, "/v1/coders", []byte(body)); rec.Code != http.StatusBadRequest {
			t.Fatalf("unknown kind %d: %d %s, want 400", i, rec.Code, rec.Body)
		}
		body = fmt.Sprintf(`{"kind":"codepack","corpus_b64":[%q]}`,
			base64.StdEncoding.EncodeToString([]byte{byte(i >> 8), byte(i)}))
		if rec := serve(http.MethodPost, "/v1/coders", []byte(body)); rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("codepack on 2 bytes %d: %d %s, want 422", i, rec.Code, rec.Body)
		}
	}
	if got := held(s); got != base {
		t.Errorf("server holds %d coders and ROMs after 4,000 failed trainings, want %d as before", got, base)
	}
	if got := healthzCoders(); got != baseHealthz {
		t.Errorf("/healthz reports %d coders after 4,000 failed trainings, want %d", got, baseHealthz)
	}
}

// TestTrainRejectsRepeatedCorpus: a training corpus names each image
// once. A body that names one workload 1,000 times, one image sent
// twice, and an image sent inline and by name are bad requests that
// build nothing and keep nothing.
func TestTrainRejectsRepeatedCorpus(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	w, _ := workload.ByName("eightq")
	text, err := w.Text()
	if err != nil {
		t.Fatal(err)
	}
	many := make([]string, 1000)
	for i := range many {
		many[i] = "espresso"
	}
	for _, c := range []struct {
		name string
		req  trainRequest
		want string
	}{
		{"workload named 1000 times", trainRequest{Kind: KindHuffman, Workloads: many}, `workloads[1]: workload "espresso" is named twice`},
		{"image sent twice", trainRequest{Kind: KindCodePack, CorpusB64: []b64Field{b64(text), b64(text)}}, "corpus_b64[1] repeats the image of corpus_b64[0]"},
		{"image inline and named", trainRequest{Kind: KindHuffman, CorpusB64: []b64Field{b64(text)}, Workloads: []string{"eightq"}}, `workload "eightq" repeats the image of corpus_b64[0]`},
	} {
		t.Run(c.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/coders", c.req)
			wantError(t, resp, body, http.StatusBadRequest, CodeBadRequest)
			if eb := decodeAs[errorBody](t, body); eb.Error == nil || eb.Error.Message != c.want {
				t.Errorf("body %s, want the message %q", body, c.want)
			}
		})
	}
	if got := counterValue(t, s, "ccrpd_coder_builds_total"); got != "0" {
		t.Errorf("builds = %s, want 0", got)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if h := decodeAs[healthzBody](t, body); h.Coders != 0 {
		t.Errorf("healthz coders = %d, want 0", h.Coders)
	}
}

func TestCompressDecompressRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := trainPreselected(t, ts.URL)

	text := []byte("the service must round-trip arbitrary text images, not just corpus programs. ")
	text = bytes.Repeat(text, 8)

	resp, body := postJSON(t, ts.URL+"/v1/compress", compressRequest{
		CoderID: id, TextB64: b64(text)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: %d %s", resp.StatusCode, body)
	}
	comp := decodeAs[compressResponse](t, body)
	if comp.Ratio <= 0 || comp.Ratio >= 1.2 {
		t.Errorf("ratio = %g, want (0, 1.2)", comp.Ratio)
	}
	if len(comp.Lines) != comp.OriginalBytes/core.LineSize {
		t.Errorf("lines = %d, want %d", len(comp.Lines), comp.OriginalBytes/core.LineSize)
	}
	sum := 0
	for _, l := range comp.Lines {
		sum += l.Len
	}
	if sum != comp.BlocksBytes {
		t.Errorf("per-line lengths sum to %d, want blocks_bytes %d", sum, comp.BlocksBytes)
	}
	if len(comp.ROMB64) == 0 {
		t.Fatal("preselected coder produced no serialized ROM")
	}

	// Round trip via the self-describing CROM image.
	resp, body = postJSON(t, ts.URL+"/v1/decompress", decompressRequest{ROMB64: b64(comp.ROMB64)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompress: %d %s", resp.StatusCode, body)
	}
	got := decodeAs[decompressResponse](t, body).TextB64
	want := make([]byte, comp.OriginalBytes) // padded to the line size
	copy(want, text)
	if !bytes.Equal(got, want) {
		t.Fatal("ROM round trip is not byte-identical")
	}

	// Round trip via blocks + per-line records (the codec path's shape).
	resp, body = postJSON(t, ts.URL+"/v1/decompress", decompressRequest{
		CoderID: id, BlocksB64: b64(comp.BlocksB64), Lines: comp.Lines})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompress by lines: %d %s", resp.StatusCode, body)
	}
	got = decodeAs[decompressResponse](t, body).TextB64
	if !bytes.Equal(got, want) {
		t.Fatal("blocks round trip is not byte-identical")
	}
}

// TestWorkloadsOfBothCorpora: every route that takes a workload name
// takes the RV32 ports' names as it takes the R2000 programs', as the
// CLIs do, and an RV32 program's ROM decompresses to its text.
func TestWorkloadsOfBothCorpora(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := trainPreselected(t, ts.URL)
	for _, row := range []struct {
		route string
		req   any
	}{
		{"/v1/coders", trainRequest{Kind: KindHuffman, Workloads: []string{"rv-sieve", "eightq"}}},
		{"/v1/simulate", simulateRequest{Workload: "rv-sieve"}},
	} {
		resp, body := postJSON(t, ts.URL+row.route, row.req)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s %+v: %d %s", row.route, row.req, resp.StatusCode, body)
		}
	}
	w, ok := workload.ByName("rv-sieve")
	if !ok {
		t.Fatal("workload.ByName does not find rv-sieve")
	}
	text, err := w.Text()
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/compress", compressRequest{CoderID: id, Workload: "rv-sieve"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress rv-sieve: %d %s", resp.StatusCode, body)
	}
	comp := decodeAs[compressResponse](t, body)
	resp, body = postJSON(t, ts.URL+"/v1/decompress", decompressRequest{ROMB64: b64(comp.ROMB64)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompress rv-sieve: %d %s", resp.StatusCode, body)
	}
	want := make([]byte, comp.OriginalBytes)
	copy(want, text)
	if got := decodeAs[decompressResponse](t, body).TextB64; !bytes.Equal(got, want) {
		t.Error("rv-sieve's ROM does not decompress to its text")
	}
}

func TestCompressCodePackRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/coders",
		trainRequest{Kind: KindCodePack, Workloads: []string{"eightq"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("train codepack: %d %s", resp.StatusCode, body)
	}
	info := decodeAs[coderInfo](t, body)
	if info.DictBytes == 0 {
		t.Error("codepack coder reports no dictionary cost")
	}

	resp, body = postJSON(t, ts.URL+"/v1/compress",
		compressRequest{CoderID: info.ID, Workload: "eightq"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: %d %s", resp.StatusCode, body)
	}
	comp := decodeAs[compressResponse](t, body)
	if len(comp.ROMB64) != 0 {
		t.Error("codec ROM unexpectedly claims CROM serializability")
	}

	resp, body = postJSON(t, ts.URL+"/v1/decompress", decompressRequest{
		CoderID: info.ID, BlocksB64: b64(comp.BlocksB64), Lines: comp.Lines})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompress: %d %s", resp.StatusCode, body)
	}
	dec := decodeAs[decompressResponse](t, body)
	if dec.OriginalBytes != comp.OriginalBytes {
		t.Errorf("round trip size %d, want %d", dec.OriginalBytes, comp.OriginalBytes)
	}
}

func TestDecompressHostileInput(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := trainPreselected(t, ts.URL)

	t.Run("garbage ROM blob", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+"/v1/decompress", decompressRequest{
			ROMB64: b64([]byte("not a rom at all"))})
		wantError(t, resp, body, http.StatusUnprocessableEntity, CodeUnprocessable)
	})

	t.Run("line lengths overrun blocks", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+"/v1/decompress", decompressRequest{
			CoderID:   id,
			BlocksB64: b64([]byte{0xFF}),
			Lines:     []lineInfo{{Len: 1000}}})
		wantError(t, resp, body, http.StatusUnprocessableEntity, CodeUnprocessable)
	})

	t.Run("negative line length", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+"/v1/decompress", decompressRequest{
			CoderID:   id,
			BlocksB64: b64([]byte{0xFF}),
			Lines:     []lineInfo{{Len: -5}}})
		wantError(t, resp, body, http.StatusUnprocessableEntity, CodeUnprocessable)
	})

	// Line records a LAT cannot hold: a raw line is exactly 32 stored
	// bytes, a compressed one 1-31, and the lengths add up to the block
	// region. Each is a 422 naming the offending line.
	resp, body := postJSON(t, ts.URL+"/v1/compress", compressRequest{CoderID: id, Workload: "eightq"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: %d %s", resp.StatusCode, body)
	}
	comp := decodeAs[compressResponse](t, body)
	blocks := comp.BlocksB64
	// The first compressed line's stored bytes, for the overlong cases.
	var stored []byte
	for i, off := 0, 0; stored == nil; i++ {
		if l := comp.Lines[i]; !l.Raw {
			stored = blocks[off : off+l.Len]
		}
		off += comp.Lines[i].Len
	}
	rejectLines := func(t *testing.T, blocks []byte, lines []lineInfo, line int) {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/decompress", decompressRequest{
			CoderID: id, BlocksB64: b64(blocks), Lines: lines})
		wantError(t, resp, body, http.StatusUnprocessableEntity, CodeUnprocessable)
		if e := decodeAs[errorBody](t, body).Error; e == nil || !strings.Contains(e.Message, fmt.Sprintf("line %d:", line)) {
			t.Errorf("error %s does not name line %d", body, line)
		}
	}
	padded := func(n int) []byte { return append(append([]byte(nil), stored...), make([]byte, n-len(stored))...) }

	t.Run("short raw line", func(t *testing.T) {
		rejectLines(t, make([]byte, 5), []lineInfo{{Len: 5, Raw: true}}, 0)
	})
	t.Run("long raw line", func(t *testing.T) {
		rejectLines(t, make([]byte, 40), []lineInfo{{Len: 40, Raw: true}}, 0)
	})
	t.Run("compressed line of a full line", func(t *testing.T) {
		rejectLines(t, padded(core.LineSize), []lineInfo{{Len: core.LineSize}}, 0)
	})
	t.Run("compressed line past a full line", func(t *testing.T) {
		rejectLines(t, padded(36), []lineInfo{{Len: 36}}, 0)
	})
	t.Run("bytes after the last line", func(t *testing.T) {
		rejectLines(t, append(append([]byte(nil), blocks...), 1, 2, 3), comp.Lines, len(comp.Lines)-1)
	})

	t.Run("batch fails only the bad item", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+"/v1/decompress:batch", decompressBatchRequest{Items: []decompressRequest{
			{CoderID: id, BlocksB64: b64(comp.BlocksB64), Lines: comp.Lines},
			{CoderID: id, BlocksB64: b64(make([]byte, 5)),
				Lines: []lineInfo{{Len: 5, Raw: true}}},
		}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch decompress: %d %s", resp.StatusCode, body)
		}
		out := decodeAs[decompressBatchResponse](t, body)
		if len(out.Items) != 2 || out.Errors != 1 {
			t.Fatalf("batch = %d items, %d errors; want 2 items, 1 error", len(out.Items), out.Errors)
		}
		if r := out.Items[0].Result; r == nil || r.OriginalBytes != comp.OriginalBytes {
			t.Errorf("item 0 = %+v, want the %d-byte text", out.Items[0], comp.OriginalBytes)
		}
		if e := out.Items[1].Error; e == nil || e.Code != CodeUnprocessable || !strings.Contains(e.Message, "line 0:") {
			t.Errorf("item 1 = %+v, want an unprocessable error naming line 0", out.Items[1])
		}
	})
}

// TestDecompressDeadline pins the line walk's context check: under a
// request context that has expired before the handler runs, a valid
// lines-form payload answers 408 deadline_exceeded instead of decoding.
func TestDecompressDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	id := trainPreselected(t, ts.URL)
	entry, err := s.resolveCoder(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workload.ByName("eightq")
	text, err := w.Text()
	if err != nil {
		t.Fatal(err)
	}
	rom, err := core.BuildROM(text, entry.romOptions(false))
	if err != nil {
		t.Fatal(err)
	}
	comp, err := compressResult(entry, id, rom)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(decompressRequest{CoderID: id, BlocksB64: b64(comp.BlocksB64), Lines: comp.Lines})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/decompress", bytes.NewReader(raw)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	wantError(t, rec.Result(), rec.Body.Bytes(), http.StatusRequestTimeout, CodeDeadlineExceeded)
}

func TestSimulatePoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/simulate", simulateRequest{
		Workload: "eightq", CacheBytes: 1024, CLBEntries: 16, Memory: "Burst EPROM"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %s", resp.StatusCode, body)
	}
	sim := decodeAs[simulateResponse](t, body)
	if sim.RelativePerformance <= 0 {
		t.Errorf("relative performance = %g, want > 0", sim.RelativePerformance)
	}
	if sim.CCRP.Cycles == 0 || sim.Standard.Cycles == 0 {
		t.Errorf("cycle counts missing: %+v", sim)
	}
	if sim.ROMRatio <= 0 || sim.ROMRatio >= 1 {
		t.Errorf("rom ratio = %g, want (0, 1)", sim.ROMRatio)
	}

	// The same point through the library must agree exactly — the
	// service is a transport, not a different model.
	want, err := pointViaLibrary()
	if err != nil {
		t.Fatal(err)
	}
	if sim.CCRP.Cycles != want.CCRP.Cycles || sim.Standard.Cycles != want.Standard.Cycles {
		t.Errorf("service cycles (%d/%d) differ from library (%d/%d)",
			sim.CCRP.Cycles, sim.Standard.Cycles, want.CCRP.Cycles, want.Standard.Cycles)
	}
}

// TestSimulateRejectsBadGeometry: a simulate body whose cache or CLB
// geometry is negative or absurdly large is a typed 400 before it
// reaches a worker. A negative CLB used to panic in the worker goroutine
// and take the whole daemon down; a huge one tried to allocate tens of
// gigabytes.
func TestSimulateRejectsBadGeometry(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{"workload":"eightq","clb_entries":-1}`,
		`{"workload":"eightq","clb_entries":1073741824}`,
		`{"workload":"eightq","cache_bytes":1099511627776}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		wantError(t, resp, out, http.StatusBadRequest, CodeBadRequest)
	}
	// The server is still up and still simulates.
	resp, body := postJSON(t, ts.URL+"/v1/simulate", simulateRequest{Workload: "eightq"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid simulate after bad ones: %d %s", resp.StatusCode, body)
	}
}

// TestSimulateAfterTrainSharesCacheSlot pins a fixed bug: training the
// preselected coder and then simulating with the default coder must share
// one cache slot (same key, same entry type), not collide on it.
func TestSimulateAfterTrainSharesCacheSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	trainPreselected(t, ts.URL)

	resp, body := postJSON(t, ts.URL+"/v1/simulate", simulateRequest{Workload: "eightq"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate after train: %d %s", resp.StatusCode, body)
	}

	s.metricsMu.Lock()
	builds := s.inst.builds.Value()
	s.metricsMu.Unlock()
	if builds != 1 {
		t.Errorf("coder builds = %d, want 1 (train and default simulate should share)", builds)
	}
}

// TestCompressKeepsOnlyBoundedState: client text is compressed per
// request and kept nowhere, so distinct text_b64 bodies, single or
// batched, leave the coders and ROMs held as they found them; a named workload's
// ROM is memoized once per (coder, workload, alignment), however often
// compress and simulate ask for it.
func TestCompressKeepsOnlyBoundedState(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	pre := trainPreselected(t, ts.URL)
	resp, body := postJSON(t, ts.URL+"/v1/coders", trainRequest{Kind: KindHuffman,
		CorpusB64: []b64Field{b64([]byte("a small client corpus"))}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("train huffman: %d %s", resp.StatusCode, body)
	}
	huff := decodeAs[coderInfo](t, body).ID
	base := held(s)

	rng := rand.New(rand.NewSource(16))
	text := func() b64Field {
		b := make([]byte, 64+rng.Intn(1024))
		rng.Read(b)
		return b64(b)
	}
	for i := 0; i < 64; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/compress", compressRequest{CoderID: pre, TextB64: text()})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compress %d: %d %s", i, resp.StatusCode, body)
		}
	}
	for i := 0; i < 16; i++ {
		items := make([]compressBatchItem, 4)
		for j := range items {
			items[j].TextB64 = text()
		}
		resp, body := postJSON(t, ts.URL+"/v1/compress:batch", compressBatchRequest{CoderID: huff, Items: items})
		if resp.StatusCode != http.StatusOK || decodeAs[compressBatchResponse](t, body).Errors != 0 {
			t.Fatalf("compress:batch %d: %d %s", i, resp.StatusCode, body)
		}
	}
	if got := held(s); got != base {
		t.Fatalf("server holds %d coders and ROMs after 128 distinct client texts, want %d as before", got, base)
	}

	want := base
	for _, coder := range []string{pre, huff} {
		for _, aligned := range []bool{false, true} {
			for i := 0; i < 2; i++ {
				resp, body := postJSON(t, ts.URL+"/v1/compress", compressRequest{
					CoderID: coder, Workload: "eightq", WordAligned: aligned})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("compress eightq: %d %s", resp.StatusCode, body)
				}
			}
			resp, body := postJSON(t, ts.URL+"/v1/simulate", simulateRequest{
				Workload: "eightq", CoderID: coder, WordAligned: aligned})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("simulate eightq: %d %s", resp.StatusCode, body)
			}
			want++
			if got := held(s); got != want {
				t.Fatalf("server holds %d coders and ROMs after the eightq ROM of coder %.8s (word_aligned %v), want %d",
					got, coder, aligned, want)
			}
		}
	}
}

func TestSimulateConcurrent(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(cache int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/simulate", simulateRequest{
				Workload: "eightq", CacheBytes: cache})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("concurrent simulate: %d %s", resp.StatusCode, body)
			}
		}(256 << (i % 3))
	}
	wg.Wait()
}

// TestConcurrentMixedTraffic is the serving load gate, in process: four
// clients interleave compress, byte-verified round trips and simulate
// points over several workloads. Every request answers 200, repeated
// compresses of a workload return identical bytes, every round trip
// reproduces the workload's text, the shared coder is built once, and
// every response's trace id roots a recorded request span.
func TestConcurrentMixedTraffic(t *testing.T) {
	sink := &memSink{}
	s, ts := newTestServer(t, Config{Tracer: tracing.New(tracing.Config{Sink: sink})})
	id := trainPreselected(t, ts.URL)
	workloads := []string{"eightq", "fpppp", "nasa1", "matrix25a"}

	var (
		mu     sync.Mutex
		blocks = map[string][]byte{}
		traces []string
	)
	// post decodes one 200 answer; unlike postJSON it is safe to call
	// from client goroutines.
	post := func(path string, in, out any) error {
		raw, err := json.Marshal(in)
		if err != nil {
			return err
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		mu.Lock()
		traces = append(traces, resp.Header.Get(TraceHeader))
		mu.Unlock()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: %d %s", path, resp.StatusCode, body)
		}
		return json.Unmarshal(body, out)
	}
	op := func(n int) error {
		wl := workloads[n%len(workloads)]
		if n%3 == 2 {
			var sim simulateResponse
			if err := post("/v1/simulate", simulateRequest{Workload: "eightq", CacheBytes: 256 << (n % 4)}, &sim); err != nil {
				return err
			}
			if sim.RelativePerformance <= 0 {
				return fmt.Errorf("simulate: relative performance %g", sim.RelativePerformance)
			}
			return nil
		}
		var comp compressResponse
		if err := post("/v1/compress", compressRequest{CoderID: id, Workload: wl}, &comp); err != nil {
			return err
		}
		mu.Lock()
		prev, seen := blocks[wl]
		if !seen {
			blocks[wl] = comp.BlocksB64
		}
		mu.Unlock()
		if seen && !bytes.Equal(prev, comp.BlocksB64) {
			return fmt.Errorf("compress of %s changed between requests", wl)
		}
		if n%3 == 0 {
			return nil
		}
		var dec decompressResponse
		if err := post("/v1/decompress", decompressRequest{CoderID: id, BlocksB64: b64(comp.BlocksB64), Lines: comp.Lines}, &dec); err != nil {
			return err
		}
		w, _ := workload.ByName(wl)
		text, err := w.Text()
		if err != nil {
			return err
		}
		want := make([]byte, comp.OriginalBytes)
		copy(want, text)
		if !bytes.Equal(dec.TextB64, want) {
			return fmt.Errorf("round trip of %s is not byte-identical", wl)
		}
		return nil
	}

	const clients, perClient = 4, 6
	errs := make(chan error, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if err := op(c*perClient + i); err != nil {
					errs <- err
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := counterValue(t, s, "ccrpd_coder_builds_total"); got != "1" {
		t.Errorf("coder builds = %s, want 1 shared by every request", got)
	}
	rooted := map[string]bool{}
	for _, rec := range sink.records() {
		if rec.Parent == "" && rec.Stage == StageRequest {
			rooted[rec.Trace] = true
		}
	}
	for _, tid := range traces {
		if !rooted[tid] {
			t.Errorf("response trace id %q roots no request span", tid)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Generate some traffic first.
	postJSON(t, ts.URL+"/v1/simulate", simulateRequest{Workload: "eightq"})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{
		"# TYPE ccrpd_requests_total counter",
		`ccrpd_requests_total{route="/v1/simulate"}`,
		"# TYPE ccrpd_request_seconds histogram",
		"ccrpd_uptime_seconds",
		// Runtime telemetry rides on the same scrape.
		"\ngo_goroutines ", "\ngo_heap_alloc_bytes ", "\ngo_gc_cycles_total ",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics output missing %q", want)
		}
	}
}

// TestAccessLogEvents: each request's root span is its one record —
// method, route, status, duration, error code and the trace id the
// response header carries.
func TestAccessLogEvents(t *testing.T) {
	sink := &memSink{}
	_, ts := newTestServer(t, Config{Tracer: tracing.New(tracing.Config{Sink: sink})})

	resp, _ := postJSON(t, ts.URL+"/v1/simulate", simulateRequest{Workload: "nonesuch"})
	simTrace := resp.Header.Get(TraceHeader)
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()

	var roots []tracing.Record
	for _, rec := range sink.records() {
		if rec.Parent == "" {
			roots = append(roots, rec)
		}
	}
	if len(roots) != 2 {
		t.Fatalf("got %d request records, want 2: %+v", len(roots), roots)
	}
	sim := roots[0]
	if sim.Stage != StageRequest || sim.Trace != simTrace || sim.DurNS <= 0 {
		t.Errorf("simulate record = %+v, want a timed request span under trace %s", sim, simTrace)
	}
	for key, want := range map[string]any{
		"method": http.MethodPost, "route": "/v1/simulate",
		"status": int64(http.StatusNotFound), "error_code": CodeNotFound,
	} {
		if got := sim.Attrs[key]; got != want {
			t.Errorf("simulate record %s = %v, want %v", key, got, want)
		}
	}
	if sim.Err == "" {
		t.Error("failed request's record carries no error message")
	}
	if got := roots[1].Attrs["status"]; got != int64(http.StatusOK) {
		t.Errorf("healthz record status = %v, want 200", got)
	}
	if _, ok := roots[1].Attrs["error_code"]; ok {
		t.Errorf("successful request's record carries an error_code: %+v", roots[1])
	}
}

func TestPanicConfinement(t *testing.T) {
	s := New(Config{})
	s.route("POST /v1/boom", time.Second, func(w http.ResponseWriter, r *http.Request) error {
		panic("kaboom")
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/boom", struct{}{})
	wantError(t, resp, body, http.StatusInternalServerError, CodeInternal)
}

// pointViaLibrary computes the reference simulate point directly through
// the library, bypassing the service.
func pointViaLibrary() (*core.Comparison, error) {
	wl, _ := workload.ByName("eightq")
	text, err := wl.Text()
	if err != nil {
		return nil, err
	}
	tr, err := wl.Trace()
	if err != nil {
		return nil, err
	}
	code, err := experiments.PreselectedCode()
	if err != nil {
		return nil, err
	}
	rom, err := core.BuildROM(text, core.Options{Codes: []*huffman.Code{code}})
	if err != nil {
		return nil, err
	}
	return core.Compare(tr, rom, core.Config{CacheBytes: 1024, CLBEntries: 16})
}
