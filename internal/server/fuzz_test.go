package server

import (
	"bytes"
	"cmp"
	"encoding/base64"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"ccrp/internal/cliutil"
	"ccrp/internal/core"
	"ccrp/internal/experiments"
	"ccrp/internal/huffman"
	"ccrp/internal/sweep"
	"ccrp/internal/workload"
)

// coderPlaceholder in a fuzz body stands for the trained coder's id, so
// the committed seeds reach the coder's paths without pinning the id.
const coderPlaceholder = "@coder"

// fuzzHarness is a server holding a trained preselected coder, driven in
// process: the handler fuzz targets post to it. Its store is a temporary
// directory, so every coder id the server does not hold reaches the
// store's id-to-file lookup.
type fuzzHarness struct {
	s     *Server
	coder string
}

func newFuzzHarness(f *testing.F) *fuzzHarness {
	st, err := OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	fh := &fuzzHarness{s: New(Config{Store: st})}
	var coder coderInfo
	fh.mustPost(f, "/v1/coders", trainRequest{Kind: KindPreselected}, &coder)
	fh.coder = coder.ID
	return fh
}

func (fh *fuzzHarness) post(path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	fh.s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// mustPost posts in as JSON and decodes a 200 answer into out.
func (fh *fuzzHarness) mustPost(tb testing.TB, path string, in, out any) {
	tb.Helper()
	raw, err := json.Marshal(in)
	if err != nil {
		tb.Fatal(err)
	}
	rec := fh.post(path, raw)
	if rec.Code != http.StatusOK {
		tb.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		tb.Fatal(err)
	}
}

// seed adds req, marshalled, as a fuzz seed.
func seed(f *testing.F, req any) {
	raw, err := json.Marshal(req)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
}

// parseBody is the handlers' parse of a request body, written with
// json.Decoder: the body is one JSON value, and no key at any depth names
// an unknown field.
func parseBody(body []byte, v any) error {
	if !json.Valid(body) {
		return errors.New("the body is not one JSON value")
	}
	jd := json.NewDecoder(bytes.NewReader(body))
	jd.DisallowUnknownFields()
	return jd.Decode(v)
}

// wantTyped4xx fails unless rec is a 4xx whose body is a typed error.
func wantTyped4xx(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("%d body %s does not parse: %v", rec.Code, rec.Body, err)
	}
	if rec.Code < 400 || rec.Code > 499 || eb.Error == nil || eb.Error.Code == "" {
		t.Fatalf("want a typed 4xx, got %d %s", rec.Code, rec.Body)
	}
}

// fuzzText is a short MIPS-like text image for the seeds.
var fuzzText = bytes.Repeat([]byte{0x27, 0xbd, 0xff, 0xe8, 0xaf, 0xbf, 0x00, 0x14}, 12)

// FuzzDecompressHandler posts arbitrary /v1/decompress bodies to a
// server holding a trained preselected coder. Every answer is a 200
// whose text is 32 bytes per line record (whole lines for rom_b64), or a
// typed 4xx; never a 5xx, which is also what a handler panic becomes.
func FuzzDecompressHandler(f *testing.F) {
	fh := newFuzzHarness(f)
	var comp compressResponse
	fh.mustPost(f, "/v1/compress", compressRequest{CoderID: fh.coder, TextB64: b64(fuzzText)}, &comp)
	seed(f, decompressRequest{CoderID: coderPlaceholder, BlocksB64: b64(comp.BlocksB64), Lines: comp.Lines})
	seed(f, decompressRequest{ROMB64: b64(comp.ROMB64)})

	f.Fuzz(func(t *testing.T, body []byte) {
		body = bytes.ReplaceAll(body, []byte(coderPlaceholder), []byte(fh.coder))
		rec := fh.post("/v1/decompress", body)
		if rec.Code != http.StatusOK {
			wantTyped4xx(t, rec)
			return
		}
		var req decompressRequest
		if err := parseBody(body, &req); err != nil {
			t.Fatalf("200 for a body that does not parse: %v", err)
		}
		var resp decompressResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body %s does not parse: %v", rec.Body, err)
		}
		text := resp.TextB64
		if len(text) != resp.OriginalBytes || len(text)%core.LineSize != 0 {
			t.Fatalf("200 with %d text bytes (original_bytes %d)", len(text), resp.OriginalBytes)
		}
		if len(req.ROMB64) != 0 {
			return
		}
		if len(text) != len(req.Lines)*core.LineSize {
			t.Fatalf("200 with %d text bytes for %d line records", len(text), len(req.Lines))
		}
		// Only records a LAT can hold decode: raw lines of exactly
		// LineSize bytes, compressed ones of 1 to LineSize-1, together
		// covering the whole block region.
		sum := 0
		for i, l := range req.Lines {
			if l.Len < 1 || l.Len > core.LineSize || l.Raw != (l.Len == core.LineSize) {
				t.Fatalf("200 for line %d record %+v", i, l)
			}
			sum += l.Len
		}
		if blocks, _ := base64.StdEncoding.DecodeString(string(req.BlocksB64)); sum != len(blocks) {
			t.Fatalf("200 for line records of %d bytes over %d block bytes", sum, len(blocks))
		}
	})
}

// FuzzCompressHandler posts arbitrary /v1/compress bodies to the same
// harness. A 200's blocks_b64 and lines decode through /v1/decompress to
// the submitted text, zero-padded to whole lines; any other answer is a
// typed 4xx, and a 404 not_found for any coder_id but the harness's,
// however it is spelled. Client text is kept nowhere, so the server
// never holds more than its set-up coder plus one ROM per named
// (workload, alignment); the names are both corpora's, R2000 and RV32.
func FuzzCompressHandler(f *testing.F) {
	fh := newFuzzHarness(f)
	limit := held(fh.s) + 2*len(workload.Names())
	seed(f, compressRequest{CoderID: coderPlaceholder, TextB64: b64(fuzzText)})
	seed(f, compressRequest{CoderID: coderPlaceholder, Workload: "eightq"})

	f.Fuzz(func(t *testing.T, body []byte) {
		body = bytes.ReplaceAll(body, []byte(coderPlaceholder), []byte(fh.coder))
		rec := fh.post("/v1/compress", body)
		if n := held(fh.s); n > limit {
			t.Fatalf("server holds %d coders and ROMs, over the bound %d", n, limit)
		}
		var req compressRequest
		parsed := parseBody(body, &req) == nil
		if parsed && req.CoderID != "" && req.CoderID != fh.coder {
			var eb errorBody
			if rec.Code != http.StatusNotFound || json.Unmarshal(rec.Body.Bytes(), &eb) != nil ||
				eb.Error == nil || eb.Error.Code != CodeNotFound {
				t.Fatalf("coder_id %q: want a 404 %s, got %d %s", req.CoderID, CodeNotFound, rec.Code, rec.Body)
			}
			return
		}
		if rec.Code != http.StatusOK {
			wantTyped4xx(t, rec)
			return
		}
		if !parsed {
			t.Fatalf("200 for a body that does not parse: %s", body)
		}
		var text []byte
		var err error
		if req.Workload != "" {
			w, _ := workload.ByName(req.Workload)
			text, err = w.Text()
		} else {
			text, err = base64.StdEncoding.DecodeString(string(req.TextB64))
		}
		if err != nil {
			t.Fatalf("200 for a text that does not resolve: %v", err)
		}
		var comp compressResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &comp); err != nil {
			t.Fatalf("200 body %s does not parse: %v", rec.Body, err)
		}
		var dec decompressResponse
		fh.mustPost(t, "/v1/decompress", decompressRequest{
			CoderID: comp.CoderID, BlocksB64: b64(comp.BlocksB64), Lines: comp.Lines}, &dec)
		want := make([]byte, (len(text)+core.LineSize-1)/core.LineSize*core.LineSize)
		copy(want, text)
		if !bytes.Equal(dec.TextB64, want) {
			t.Fatalf("blocks and lines decode to %d bytes, want the %d submitted bytes padded to %d",
				len(dec.TextB64), len(text), len(want))
		}
	})
}

// wantBatchAnswer checks a :batch route's answer to body: a non-200 is
// a typed 4xx; a 200 is for a body that parses into req as the handler
// parses it (parseBody), and answers each of its items with exactly one
// of result or error, every error carrying a client-error code, and
// errors counting the error items.
func wantBatchAnswer(t *testing.T, rec *httptest.ResponseRecorder, body []byte, req any) {
	t.Helper()
	if rec.Code != http.StatusOK {
		wantTyped4xx(t, rec)
		return
	}
	if err := parseBody(body, req); err != nil {
		t.Fatalf("200 for a body that does not parse: %v", err)
	}
	var shape struct {
		Items []json.RawMessage `json:"items"`
	}
	if err := json.Unmarshal(body, &shape); err != nil {
		t.Fatal(err)
	}
	var resp struct {
		Items []struct {
			Result json.RawMessage `json:"result"`
			Error  *APIError       `json:"error"`
		} `json:"items"`
		Errors int `json:"errors"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("200 body %s does not parse: %v", rec.Body, err)
	}
	if len(resp.Items) != len(shape.Items) {
		t.Fatalf("200 with %d items for %d request items", len(resp.Items), len(shape.Items))
	}
	errs := 0
	for i, it := range resp.Items {
		if (it.Result == nil) == (it.Error == nil) {
			t.Fatalf("item %d: want exactly one of result and error, got %s", i, rec.Body)
		}
		if it.Error == nil {
			continue
		}
		errs++
		switch it.Error.Code {
		case CodeBadRequest, CodeNotFound, CodeUnprocessable, CodeDeadlineExceeded:
		default:
			t.Fatalf("item %d: error code %q is not a client error: %s", i, it.Error.Code, rec.Body)
		}
	}
	if resp.Errors != errs {
		t.Fatalf("errors = %d for %d error items", resp.Errors, errs)
	}
}

// FuzzCompressBatchHandler posts arbitrary /v1/compress:batch bodies to
// the harness. A request-level problem (bad JSON, no items, too many, a
// missing or unknown coder) is a typed 4xx; a 200 answers every item,
// each with a result or a typed error. Client text is kept nowhere, so
// the server stays within FuzzCompressHandler's bound.
func FuzzCompressBatchHandler(f *testing.F) {
	fh := newFuzzHarness(f)
	limit := held(fh.s) + 2*len(workload.Names())
	text := b64(fuzzText)
	seed(f, compressBatchRequest{CoderID: coderPlaceholder, Items: []compressBatchItem{
		{TextB64: text}, {Workload: "eightq"}, {TextB64: b64Field("!!!")}, {TextB64: text, Workload: "eightq"}}})
	seed(f, compressBatchRequest{CoderID: coderPlaceholder, WordAligned: true, Items: []compressBatchItem{{Workload: "nonesuch"}, {}}})

	f.Fuzz(func(t *testing.T, body []byte) {
		body = bytes.ReplaceAll(body, []byte(coderPlaceholder), []byte(fh.coder))
		rec := fh.post("/v1/compress:batch", body)
		if n := held(fh.s); n > limit {
			t.Fatalf("server holds %d coders and ROMs, over the bound %d", n, limit)
		}
		wantBatchAnswer(t, rec, body, &compressBatchRequest{})
	})
}

// FuzzDecompressBatchHandler posts arbitrary /v1/decompress:batch bodies
// to the harness, with the same contract: a typed 4xx for the request,
// or one result or typed error per item.
func FuzzDecompressBatchHandler(f *testing.F) {
	fh := newFuzzHarness(f)
	var comp compressResponse
	fh.mustPost(f, "/v1/compress", compressRequest{CoderID: fh.coder, TextB64: b64(fuzzText)}, &comp)
	seed(f, decompressBatchRequest{Items: []decompressRequest{
		{ROMB64: b64(comp.ROMB64)},
		{CoderID: coderPlaceholder, BlocksB64: b64(comp.BlocksB64), Lines: comp.Lines},
		{ROMB64: b64Field("bm90IGEgcm9tIGF0IGFsbA==")},
		{CoderID: "nope", BlocksB64: b64(comp.BlocksB64), Lines: comp.Lines},
		{}}})

	f.Fuzz(func(t *testing.T, body []byte) {
		body = bytes.ReplaceAll(body, []byte(coderPlaceholder), []byte(fh.coder))
		rec := fh.post("/v1/decompress:batch", body)
		wantBatchAnswer(t, rec, body, &decompressBatchRequest{})
	})
}

// stringFields returns t with each b64Field in it, at any depth, a
// string: the type FuzzDecodeRequest's reference decoder fills.
func stringFields(t reflect.Type) reflect.Type {
	switch {
	case t == reflect.TypeFor[b64Field]():
		return reflect.TypeFor[string]()
	case t.Kind() == reflect.Slice:
		return reflect.SliceOf(stringFields(t.Elem()))
	case t.Kind() == reflect.Pointer:
		return reflect.PointerTo(stringFields(t.Elem()))
	case t.Kind() == reflect.Struct:
		fields := make([]reflect.StructField, t.NumField())
		for i := range fields {
			fields[i] = t.Field(i)
			fields[i].Type = stringFields(fields[i].Type)
		}
		return reflect.StructOf(fields)
	}
	return t
}

// overMax reports whether a field of the struct v points to holds more
// elements than its max tag allows.
func overMax(v any) bool {
	rv := reflect.ValueOf(v).Elem()
	for i := range rv.NumField() {
		if m := rv.Type().Field(i).Tag.Get("max"); m != "" {
			if n, _ := strconv.Atoi(m); rv.Field(i).Len() > n {
				return true
			}
		}
	}
	return false
}

// FuzzDecodeRequest holds the handlers' body parse (unmarshalRequest) to
// json.Decoder with DisallowUnknownFields, over every request type, each
// base64 field a plain string for the Decoder. On a body that is one
// JSON value both accept or both refuse it, but for one the Decoder
// fills with more items than a field's max tag allows, which the parse
// refuses; an accepted body decodes to the same request on both sides.
// Any other body is refused.
func FuzzDecodeRequest(f *testing.F) {
	types := []reflect.Type{
		reflect.TypeFor[trainRequest](),
		reflect.TypeFor[compressRequest](),
		reflect.TypeFor[compressBatchRequest](),
		reflect.TypeFor[decompressRequest](),
		reflect.TypeFor[decompressBatchRequest](),
		reflect.TypeFor[simulateRequest](),
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, typ := range types {
			got := reflect.New(typ).Interface()
			err := unmarshalRequest(body, got)
			if !json.Valid(body) {
				if err == nil {
					t.Fatalf("%v: accepted a body that is not one JSON value", typ)
				}
				continue
			}
			want := reflect.New(stringFields(typ)).Interface()
			jd := json.NewDecoder(bytes.NewReader(body))
			jd.DisallowUnknownFields()
			wantErr := jd.Decode(want)
			if wantErr == nil && overMax(want) {
				wantErr = errors.New("an array over its max tag")
			}
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%v: err %v, json.Decoder's %v", typ, err, wantErr)
			}
			if err != nil {
				continue
			}
			g, gerr := json.Marshal(got)
			w, werr := json.Marshal(want)
			if gerr != nil || werr != nil || !bytes.Equal(g, w) {
				t.Fatalf("%v: decoded %s (%v), json.Decoder %s (%v)", typ, g, gerr, w, werr)
			}
		}
	})
}

// FuzzSimulateHandler posts arbitrary /v1/simulate bodies to the same
// harness. A 200's standard and ccrp stats equal a direct core.Compare on
// the workload's trace under the configuration the body names; any other
// answer is a typed 4xx.
func FuzzSimulateHandler(f *testing.F) {
	fh := newFuzzHarness(f)
	code, err := experiments.PreselectedCode()
	if err != nil {
		f.Fatal(err)
	}
	seed(f, simulateRequest{Workload: "eightq"})
	rate := 0.5
	seed(f, simulateRequest{Workload: "fpppp", CacheBytes: 512, CacheWays: 2, CLBEntries: 4,
		Memory: "DRAM", DCacheMissRate: &rate, CoderID: coderPlaceholder, WordAligned: true, OverlapCycles: 3})

	f.Fuzz(func(t *testing.T, body []byte) {
		body = bytes.ReplaceAll(body, []byte(coderPlaceholder), []byte(fh.coder))
		rec := fh.post("/v1/simulate", body)
		if rec.Code != http.StatusOK {
			wantTyped4xx(t, rec)
			return
		}
		var req simulateRequest
		if err := parseBody(body, &req); err != nil {
			t.Fatalf("200 for a body that does not parse: %v", err)
		}
		var resp simulateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body %s does not parse: %v", rec.Body, err)
		}
		w, ok := workload.ByName(req.Workload)
		if !ok {
			t.Fatalf("200 for unknown workload %q", req.Workload)
		}
		tr, err := w.Trace()
		if err != nil {
			t.Fatal(err)
		}
		text, err := w.Text()
		if err != nil {
			t.Fatal(err)
		}
		mem, err := cliutil.MemoryModel(cmp.Or(req.Memory, "Burst EPROM"))
		if err != nil {
			t.Fatalf("200 for memory %q: %v", req.Memory, err)
		}
		rom, err := core.BuildROM(text, core.Options{Codes: []*huffman.Code{code}, WordAligned: req.WordAligned})
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{
			CacheBytes:    req.CacheBytes,
			CacheWays:     req.CacheWays,
			CLBEntries:    req.CLBEntries,
			Mem:           mem,
			OverlapCycles: req.OverlapCycles,
		}
		if req.DCacheMissRate != nil && *req.DCacheMissRate < 1 {
			cfg.DataCache, cfg.DCacheMissRate = true, *req.DCacheMissRate
		}
		want, err := core.Compare(tr, rom, cfg)
		if err != nil {
			t.Fatalf("200 for a configuration Compare rejects: %v", err)
		}
		if resp.Standard != want.Standard || resp.CCRP != want.CCRP {
			t.Fatalf("200 with standard %+v, ccrp %+v; Compare gives %+v, %+v",
				resp.Standard, resp.CCRP, want.Standard, want.CCRP)
		}
	})
}

// FuzzLoadStoredCoder writes arbitrary bytes as a coder file and loads
// it. The file is named by the hash of its header's key when the first
// line parses, so mutations reach the checks past the name; the same
// payload is also loaded under that header with its length and hash
// made to match, so mutations reach the gob decoder. load either errs or
// returns a coder whose ID is the file's id, never panics, and a coder
// it accepts saves and loads back equal.
func FuzzLoadStoredCoder(f *testing.F) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "store-v1", "*"+storeExt))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range fixtures {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	st := &Store{dir: f.TempDir()}

	f.Fuzz(func(t *testing.T, raw []byte) {
		var hdr storeHeader
		line, payload, ok := bytes.Cut(raw, []byte{'\n'})
		if ok {
			_ = json.Unmarshal(line, &hdr) // a bad header is load's to reject
		}
		loadStoredFile(t, st, hdr.Key, raw)
		if ok {
			hdr.Len, hdr.SHA256 = len(payload), sweep.HashBytes(payload)
			fixed, err := json.Marshal(hdr)
			if err != nil {
				t.Fatal(err)
			}
			loadStoredFile(t, st, hdr.Key, append(append(fixed, '\n'), payload...))
		}
	})
}

// loadStoredFile writes raw as the file of key's id and checks load's
// contract on it.
func loadStoredFile(t *testing.T, st *Store, key string, raw []byte) {
	t.Helper()
	id := sweep.HashBytes([]byte(key))
	path := st.path(id)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	defer os.Remove(path)
	entry, err := st.load(id)
	if err != nil {
		return
	}
	if entry.ID != id {
		t.Fatalf("load(%s) returned coder %s", id, entry.ID)
	}
	want, err := encodeCoderEntry(entry)
	if err != nil {
		t.Fatalf("accepted coder does not encode: %v", err)
	}
	if err := st.save(key, entry); err != nil {
		t.Fatalf("accepted coder does not save: %v", err)
	}
	back, err := st.load(id)
	if err != nil {
		t.Fatalf("saved coder does not load: %v", err)
	}
	if got, err := encodeCoderEntry(back); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("coder changed across save and load (err %v)", err)
	}
}
