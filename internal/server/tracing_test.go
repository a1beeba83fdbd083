package server

import (
	"net/http"
	"strings"
	"sync"
	"testing"

	"ccrp/internal/tracing"
)

// memSink collects span records in memory.
type memSink struct {
	mu   sync.Mutex
	recs []tracing.Record
}

func (s *memSink) Emit(rec tracing.Record) {
	s.mu.Lock()
	s.recs = append(s.recs, rec)
	s.mu.Unlock()
}

func (s *memSink) Close() error { return nil }

func (s *memSink) records() []tracing.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]tracing.Record(nil), s.recs...)
}

// TestResponsesCarryTraceIDs pins the serving contract: every 2xx and
// 4xx response carries an X-Ccrp-Trace-Id header, and the same id roots
// the request's span record.
func TestResponsesCarryTraceIDs(t *testing.T) {
	sink := &memSink{}
	_, ts := newTestServer(t, Config{Tracer: tracing.New(tracing.Config{Sink: sink})})

	id := trainPreselected(t, ts.URL)
	seen := map[string]bool{}
	record := func(resp *http.Response, wantStatus int) {
		t.Helper()
		if resp.StatusCode != wantStatus {
			t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
		}
		tid := resp.Header.Get(TraceHeader)
		if tid == "" {
			t.Fatalf("%s response has no %s header", resp.Request.URL.Path, TraceHeader)
		}
		if _, err := tracing.ParseTraceID(tid); err != nil {
			t.Fatalf("%s: bad trace id %q: %v", resp.Request.URL.Path, tid, err)
		}
		if seen[tid] {
			t.Fatalf("trace id %s reused across requests", tid)
		}
		seen[tid] = true
	}

	// 2xx: compress; 4xx: unknown coder, malformed JSON.
	resp, _ := postJSON(t, ts.URL+"/v1/compress", compressRequest{CoderID: id, Workload: "eightq"})
	record(resp, http.StatusOK)
	resp, _ = postJSON(t, ts.URL+"/v1/compress", compressRequest{CoderID: "nope", Workload: "eightq"})
	record(resp, http.StatusNotFound)
	resp, err := http.Post(ts.URL+"/v1/compress", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	record(resp, http.StatusBadRequest)

	rooted := map[string]bool{}
	for _, rec := range sink.records() {
		if rec.Parent == "" && rec.Stage == StageRequest {
			rooted[rec.Trace] = true
		}
	}
	for tid := range seen {
		if !rooted[tid] {
			t.Errorf("trace id %s from a response header roots no request span", tid)
		}
	}
}

// TestInboundTraceAdoption pins the gateway-hop contract: a well-formed
// inbound X-Ccrp-Trace-Id is adopted — the response carries the same id
// and the recorded spans join that trace, so router and backend stages
// stitch into one tree — while malformed ids are rejected and replaced
// with a fresh one, so broken clients cannot poison correlation.
func TestInboundTraceAdoption(t *testing.T) {
	sink := &memSink{}
	tracer := tracing.New(tracing.Config{Sink: sink})
	_, ts := newTestServer(t, Config{Tracer: tracer})

	send := func(tid string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		if tid != "" {
			req.Header.Set(TraceHeader, tid)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	t.Run("adopts a valid inbound id", func(t *testing.T) {
		want := "00112233445566778899aabbccddeeff"
		resp := send(want)
		if got := resp.Header.Get(TraceHeader); got != want {
			t.Fatalf("response trace id = %q, want the inbound %q adopted", got, want)
		}
		found := false
		for _, rec := range sink.records() {
			if rec.Trace == want && rec.Stage == StageRequest {
				found = true
			}
		}
		if !found {
			t.Fatalf("no request span recorded under the adopted trace id %s", want)
		}
	})

	t.Run("rejects malformed ids", func(t *testing.T) {
		for _, bad := range []string{
			"xyz",                                 // not hex
			"0011223344",                          // too short
			"00112233445566778899aabbccddeeff00",  // too long
			"zz112233445566778899aabbccddeeff",    // hex-length, non-hex
			"00000000000000000000000000000000",    // the invalid zero id
			"00112233-4455-6677-8899-aabbccddeef", // uuid punctuation
		} {
			resp := send(bad)
			got := resp.Header.Get(TraceHeader)
			if got == bad {
				t.Errorf("malformed inbound id %q was adopted", bad)
			}
			if _, err := tracing.ParseTraceID(got); err != nil {
				t.Errorf("response to malformed id %q carries unparseable id %q", bad, got)
			}
		}
	})
}

// TestRequestSpansCoverStages boots a traced server, drives one of each
// request kind, and asserts the span stream decomposes them into the
// documented stage names with the request root first in each tree.
func TestRequestSpansCoverStages(t *testing.T) {
	sink := &memSink{}
	tracer := tracing.New(tracing.Config{Sink: sink})
	_, ts := newTestServer(t, Config{Tracer: tracer})

	id := trainPreselected(t, ts.URL)
	resp, body := postJSON(t, ts.URL+"/v1/compress", compressRequest{CoderID: id, Workload: "eightq"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: %d %s", resp.StatusCode, body)
	}
	comp := decodeAs[compressResponse](t, body)
	resp, body = postJSON(t, ts.URL+"/v1/decompress", decompressRequest{
		CoderID: id, BlocksB64: b64(comp.BlocksB64), Lines: comp.Lines,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompress: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/simulate", simulateRequest{Workload: "eightq"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %s", resp.StatusCode, body)
	}

	recs := sink.records()
	byStage := map[string]int{}
	roots := map[string]tracing.Record{}
	for _, rec := range recs {
		byStage[rec.Stage]++
		if rec.Parent == "" {
			roots[rec.Trace] = rec
		}
	}
	for _, stage := range []string{
		StageRequest, StageDecodeBody, StageText, StageCoderGet, StageCoderTrain,
		StageCompress, StageDecompress, StageSimQueue, StageSimRun, StageEncode,
	} {
		if byStage[stage] == 0 {
			t.Errorf("no %s spans in the stream (stages: %v)", stage, byStage)
		}
	}
	// Every trace has exactly one root, and it is the request span.
	if len(roots) != 4 {
		t.Errorf("got %d rooted traces, want 4 (train, compress, decompress, simulate)", len(roots))
	}
	for tid, root := range roots {
		if root.Stage != StageRequest {
			t.Errorf("trace %s rooted at %q, want %q", tid, root.Stage, StageRequest)
		}
		if root.DurNS <= 0 {
			t.Errorf("trace %s root has non-positive duration %d", tid, root.DurNS)
		}
	}
	// Child spans must nest inside their trace's root duration.
	for _, rec := range recs {
		if rec.Parent == "" {
			continue
		}
		root, ok := roots[rec.Trace]
		if !ok {
			t.Errorf("span %s (stage %s) has no root for trace %s", rec.Span, rec.Stage, rec.Trace)
			continue
		}
		if rec.DurNS > root.DurNS {
			t.Errorf("stage %s span (%d ns) outlasts its request root (%d ns)", rec.Stage, rec.DurNS, root.DurNS)
		}
	}

	// The decompress span counts the lines it expanded.
	found := false
	for _, rec := range recs {
		if rec.Stage == StageDecompress && rec.Attrs["lines"] == int64(len(comp.Lines)) {
			found = true
		}
	}
	if !found {
		t.Errorf("no decompress span carries lines = %d", len(comp.Lines))
	}

	// ccrp-spans' analysis decomposes the stream: every trace rooted,
	// every stage aggregated, root time explained by the stages.
	a := tracing.Analyze(recs, 5)
	if a.Traces != 4 || a.Roots != 4 || a.Coverage.Roots == 0 {
		t.Errorf("analysis = %d traces, %d roots, %d decomposed roots; want 4, 4, > 0",
			a.Traces, a.Roots, a.Coverage.Roots)
	}
	if len(a.Stages) != len(byStage) {
		t.Errorf("analysis aggregates %d stages, the stream has %d", len(a.Stages), len(byStage))
	}

	// Tail capture retains the request trees, served on /debug/traces.
	resp, body = getURL(t, ts.URL+"/debug/traces")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/traces: %d %s", resp.StatusCode, body)
	}
	snap := decodeAs[tracing.TailSnapshot](t, body)
	if len(snap.Slow) == 0 {
		t.Fatal("tail capture holds no slow traces after four requests")
	}
	if snap.Slow[0].Stage != StageRequest {
		t.Errorf("slowest retained tree is rooted at %q, want %q", snap.Slow[0].Stage, StageRequest)
	}
}
