package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"ccrp/internal/tracing"
)

// TestCompressBatchIsolatesItemFailures is the batch contract: one bad
// item fails alone, its neighbors on both sides still compress.
func TestCompressBatchIsolatesItemFailures(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	id := trainPreselected(t, ts.URL)

	req := compressBatchRequest{
		CoderID: id,
		Items: []compressBatchItem{
			{Workload: "eightq"},
			{Workload: "no-such-workload"}, // item 1 fails
			{Workload: "eightq"},
		},
	}
	resp, body := postJSON(t, ts.URL+"/v1/compress:batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with one bad item: %d %s (want 200: item errors must not fail the batch)", resp.StatusCode, body)
	}
	out := decodeAs[compressBatchResponse](t, body)
	if len(out.Items) != 3 || out.Errors != 1 {
		t.Fatalf("batch = %d items, %d errors; want 3 items, 1 error", len(out.Items), out.Errors)
	}
	for _, i := range []int{0, 2} {
		it := out.Items[i]
		if it.Error != nil || it.Result == nil {
			t.Fatalf("item %d = %+v, want success", i, it)
		}
		if it.Result.CompressedBytes <= 0 || it.Result.CompressedBytes >= it.Result.OriginalBytes {
			t.Errorf("item %d did not compress: %d of %d bytes", i, it.Result.CompressedBytes, it.Result.OriginalBytes)
		}
	}
	bad := out.Items[1]
	if bad.Result != nil || bad.Error == nil {
		t.Fatalf("item 1 = %+v, want a per-item error", bad)
	}
	if bad.Error.Code != CodeNotFound {
		t.Errorf("item 1 error code = %q, want %q", bad.Error.Code, CodeNotFound)
	}

	// The surviving items match the single-request endpoint byte for byte.
	sResp, sBody := postJSON(t, ts.URL+"/v1/compress", compressRequest{CoderID: id, Workload: "eightq"})
	if sResp.StatusCode != http.StatusOK {
		t.Fatalf("single compress: %d %s", sResp.StatusCode, sBody)
	}
	single := decodeAs[compressResponse](t, sBody)
	if !bytes.Equal(out.Items[0].Result.BlocksB64, single.BlocksB64) {
		t.Error("batch item blocks differ from the single-request blocks")
	}

	if got := counterValue(t, s, "ccrpd_batch_items_total"); got != "3" {
		t.Errorf("batch items counter = %s, want 3", got)
	}
	if got := counterValue(t, s, "ccrpd_batch_item_errors_total"); got != "1" {
		t.Errorf("batch item errors counter = %s, want 1", got)
	}
}

// TestDecompressBatchRoundTrip: a mixed batch — a CROM image item, a
// coder_id+blocks+lines item, and a malformed item — recovers the
// original text on the good items and reports the bad one in place.
func TestDecompressBatchRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := trainPreselected(t, ts.URL)
	resp, body := postJSON(t, ts.URL+"/v1/compress", compressRequest{CoderID: id, Workload: "eightq"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: %d %s", resp.StatusCode, body)
	}
	comp := decodeAs[compressResponse](t, body)
	if len(comp.ROMB64) == 0 {
		t.Fatal("preselected coder produced no CROM image")
	}

	req := decompressBatchRequest{Items: []decompressRequest{
		{ROMB64: b64(comp.ROMB64)},
		{ROMB64: b64Field("!!! not base64 !!!")}, // item 1 fails
		{CoderID: id, BlocksB64: b64(comp.BlocksB64), Lines: comp.Lines},
	}}
	resp, body = postJSON(t, ts.URL+"/v1/decompress:batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch decompress: %d %s", resp.StatusCode, body)
	}
	out := decodeAs[decompressBatchResponse](t, body)
	if len(out.Items) != 3 || out.Errors != 1 {
		t.Fatalf("batch = %d items, %d errors; want 3 items, 1 error", len(out.Items), out.Errors)
	}
	if e := out.Items[1].Error; e == nil || e.Code != CodeBadRequest {
		t.Fatalf("item 1 = %+v, want a bad_request error", out.Items[1])
	}

	var want []byte
	for _, i := range []int{0, 2} {
		it := out.Items[i]
		if it.Error != nil || it.Result == nil {
			t.Fatalf("item %d = %+v, want success", i, it)
		}
		text := it.Result.TextB64
		if want == nil {
			want = text
		} else if !bytes.Equal(text, want) {
			t.Errorf("item %d decompressed differently from item 0", i)
		}
		if it.Result.OriginalBytes != len(text) || len(text) == 0 {
			t.Errorf("item %d original_bytes = %d for %d text bytes", i, it.Result.OriginalBytes, len(text))
		}
	}
}

// TestBatchRequestLevelErrors: problems with the batch itself — not any
// one item — fail the whole request through the error taxonomy.
func TestBatchRequestLevelErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := trainPreselected(t, ts.URL)

	t.Run("empty batch", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+"/v1/compress:batch", compressBatchRequest{CoderID: id})
		wantError(t, resp, body, http.StatusBadRequest, CodeBadRequest)
	})

	// The limit is 256 items, the max tag on both requests' items.
	t.Run("oversized batch", func(t *testing.T) {
		items := make([]compressBatchItem, 257)
		for i := range items {
			items[i] = compressBatchItem{Workload: "eightq"}
		}
		resp, body := postJSON(t, ts.URL+"/v1/compress:batch", compressBatchRequest{CoderID: id, Items: items})
		wantError(t, resp, body, http.StatusBadRequest, CodeBadRequest)
		if !bytes.Contains(body, []byte("257 items")) {
			t.Errorf("error %s does not name the item count", body)
		}
	})

	t.Run("full batch", func(t *testing.T) {
		items := make([]compressBatchItem, 256)
		for i := range items {
			items[i] = compressBatchItem{Workload: "eightq"}
		}
		resp, body := postJSON(t, ts.URL+"/v1/compress:batch", compressBatchRequest{CoderID: id, Items: items})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("256 items: %d %s", resp.StatusCode, body)
		}
	})

	t.Run("unknown coder fails the batch", func(t *testing.T) {
		req := compressBatchRequest{CoderID: "deadbeef", Items: []compressBatchItem{{Workload: "eightq"}}}
		resp, body := postJSON(t, ts.URL+"/v1/compress:batch", req)
		wantError(t, resp, body, http.StatusNotFound, CodeNotFound)
	})

	t.Run("oversized decompress batch", func(t *testing.T) {
		req := decompressBatchRequest{Items: make([]decompressRequest, 257)}
		resp, body := postJSON(t, ts.URL+"/v1/decompress:batch", req)
		wantError(t, resp, body, http.StatusBadRequest, CodeBadRequest)
		if !bytes.Contains(body, []byte("257 items")) {
			t.Errorf("error %s does not name the item count", body)
		}
	})
}

// TestBatchLimitBeforeDecode: a :batch body over the item limit is
// refused before its items are decoded, so it costs about its own
// size. A 1 MiB body of empty items, posted in process to both routes,
// allocates at most twice its length before the 400: the body read
// once, and what the request and its answer need.
func TestBatchLimitBeforeDecode(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	body := []byte(`{"items":[{}` + strings.Repeat(`,{}`, 349520) + `]}`)
	s := New(Config{})
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, route := range []string{"/v1/decompress:batch", "/v1/compress:batch"} {
		post := func() (*httptest.ResponseRecorder, uint64) {
			r := httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body))
			rec := httptest.NewRecorder()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s.Handler().ServeHTTP(rec, r)
			runtime.ReadMemStats(&after)
			return rec, after.TotalAlloc - before.TotalAlloc
		}
		post() // fills the body reader's pool
		rec, alloc := post()
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "349521 items") {
			t.Fatalf("%s: %d %s, want a 400 naming the 349521 items", route, rec.Code, rec.Body)
		}
		if limit := uint64(2 * len(body)); alloc > limit {
			t.Errorf("%s: %d-byte body allocated %d bytes before its 400, over %d", route, len(body), alloc, limit)
		}
		t.Logf("%s: %d-byte body allocated %d bytes", route, len(body), alloc)
	}
}

// TestBatchItemSpans pins the per-item tracing contract: a mixed batch
// emits one batch_item span per item under the request root, each
// carrying its item index, with the failed item's span errored and the
// survivors' spans clean — so ccrp-spans can attribute cost and blame
// inside a batch, not just per request.
func TestBatchItemSpans(t *testing.T) {
	sink := &memSink{}
	tracer := tracing.New(tracing.Config{Sink: sink})
	_, ts := newTestServer(t, Config{Tracer: tracer})
	id := trainPreselected(t, ts.URL)

	req := compressBatchRequest{
		CoderID: id,
		Items: []compressBatchItem{
			{Workload: "eightq"},
			{Workload: "no-such-workload"}, // item 1 fails
			{Workload: "eightq"},
		},
	}
	resp, body := postJSON(t, ts.URL+"/v1/compress:batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	out := decodeAs[compressBatchResponse](t, body)
	if out.Errors != 1 {
		t.Fatalf("batch errors = %d, want 1", out.Errors)
	}
	tid := resp.Header.Get(TraceHeader)
	if tid == "" {
		t.Fatal("batch response carries no trace id")
	}

	var root tracing.Record
	items := map[int64]tracing.Record{}
	children := map[string]int{} // stage children hung off batch_item spans
	recs := sink.records()
	spans := map[string]tracing.Record{}
	for _, rec := range recs {
		spans[rec.Span] = rec
	}
	for _, rec := range recs {
		if rec.Trace != tid {
			continue
		}
		switch rec.Stage {
		case StageRequest:
			root = rec
		case StageBatchItem:
			idx, ok := rec.Attrs["item"]
			if !ok {
				t.Fatalf("batch_item span %s has no item attr: %+v", rec.Span, rec.Attrs)
			}
			// JSON-decoded attrs arrive as float64; in-memory as int64.
			switch v := idx.(type) {
			case int64:
				items[v] = rec
			case float64:
				items[int64(v)] = rec
			default:
				t.Fatalf("item attr has type %T", idx)
			}
		default:
			if p, ok := spans[rec.Parent]; ok && p.Stage == StageBatchItem {
				children[rec.Stage]++
			}
		}
	}
	if root.Span == "" {
		t.Fatalf("no request root span in trace %s", tid)
	}
	if len(items) != 3 {
		t.Fatalf("got %d batch_item spans, want one per item (3)", len(items))
	}
	for i := int64(0); i < 3; i++ {
		rec, ok := items[i]
		if !ok {
			t.Fatalf("no batch_item span for item %d", i)
		}
		if rec.Parent != root.Span {
			t.Errorf("item %d span hangs off %q, want the request root %q", i, rec.Parent, root.Span)
		}
		if i == 1 {
			if rec.Err == "" {
				t.Error("failed item's span carries no error")
			}
		} else if rec.Err != "" {
			t.Errorf("item %d span unexpectedly errored: %s", i, rec.Err)
		}
	}
	// The successful items decompose into the same stage vocabulary as
	// single requests — text resolution and compression under the item.
	for _, stage := range []string{StageText, StageCompress} {
		if children[stage] == 0 {
			t.Errorf("no %s child spans under batch_item spans (children: %v)", stage, children)
		}
	}
}
