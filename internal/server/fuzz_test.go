package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"ccrp/internal/core"
)

// coderPlaceholder in a fuzz body stands for the trained coder's id, so
// the committed seeds reach the lines form without pinning the id.
const coderPlaceholder = "@coder"

// FuzzDecompressHandler posts arbitrary /v1/decompress bodies to a
// server holding a trained preselected coder. Every answer is a 200
// whose text is 32 bytes per line record (whole lines for rom_b64), or a
// typed 4xx; never a 5xx, which is also what a handler panic becomes.
func FuzzDecompressHandler(f *testing.F) {
	h := New(Config{}).Handler()
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	mustPost := func(path string, in, out any) {
		raw, err := json.Marshal(in)
		if err != nil {
			f.Fatal(err)
		}
		rec := post(path, raw)
		if rec.Code != http.StatusOK {
			f.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			f.Fatal(err)
		}
	}
	var coder coderInfo
	mustPost("/v1/coders", trainRequest{Kind: KindPreselected}, &coder)
	text := bytes.Repeat([]byte{0x27, 0xbd, 0xff, 0xe8, 0xaf, 0xbf, 0x00, 0x14}, 12)
	var comp compressResponse
	mustPost("/v1/compress", compressRequest{CoderID: coder.ID, TextB64: base64.StdEncoding.EncodeToString(text)}, &comp)
	for _, req := range []decompressRequest{
		{CoderID: coderPlaceholder, BlocksB64: comp.BlocksB64, Lines: comp.Lines},
		{ROMB64: comp.ROMB64},
	} {
		raw, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		body = bytes.ReplaceAll(body, []byte(coderPlaceholder), []byte(coder.ID))
		rec := post("/v1/decompress", body)
		if rec.Code != http.StatusOK {
			var eb errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
				t.Fatalf("%d body %s does not parse: %v", rec.Code, rec.Body, err)
			}
			if rec.Code < 400 || rec.Code > 499 || eb.Error == nil || eb.Error.Code == "" {
				t.Fatalf("want a typed 4xx, got %d %s", rec.Code, rec.Body)
			}
			return
		}
		// The handler reads the first JSON value of the body; so does
		// this check.
		var req decompressRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body that does not parse: %v", err)
		}
		var resp decompressResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body %s does not parse: %v", rec.Body, err)
		}
		text, err := base64.StdEncoding.DecodeString(resp.TextB64)
		if err != nil || len(text) != resp.OriginalBytes || len(text)%core.LineSize != 0 {
			t.Fatalf("200 with %d text bytes (original_bytes %d, err %v)", len(text), resp.OriginalBytes, err)
		}
		if req.ROMB64 != "" {
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
		if blocks, _ := base64.StdEncoding.DecodeString(req.BlocksB64); sum != len(blocks) {
			t.Fatalf("200 for line records of %d bytes over %d block bytes", sum, len(blocks))
		}
	})
}
