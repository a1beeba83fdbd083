package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"ccrp/internal/core"
	"ccrp/internal/experiments"
	"ccrp/internal/huffman"
	"ccrp/internal/workload"
)

// TestDecodeRequestStrict posts bodies that probe how a request body is
// parsed: it is one JSON value, a key names a field exactly or under
// case folding (escapes unquoted first), a key naming no field is a 400
// at any depth, and a base64 payload is decoded only by the item that
// carries it.
func TestDecodeRequestStrict(t *testing.T) {
	s := New(Config{})
	post := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}
	var coder coderInfo
	if rec := post("/v1/coders", `{"kind":"preselected"}`); rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &coder) != nil {
		t.Fatalf("train: %d %s", rec.Code, rec.Body)
	}
	rec := post("/v1/compress", fmt.Sprintf(`{"coder_id":%q,"workload":"eightq"}`, coder.ID))
	var comp compressResponse
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &comp) != nil {
		t.Fatalf("compress: %d %s", rec.Code, rec.Body)
	}
	lines, err := json.Marshal(comp.Lines)
	if err != nil {
		t.Fatal(err)
	}
	romItem := fmt.Sprintf(`{"rom_b64":%q}`, b64(comp.ROMB64))
	linesItem := func(lines []byte) string {
		return fmt.Sprintf(`{"coder_id":%q,"blocks_b64":%q,"lines":%s}`, coder.ID, b64(comp.BlocksB64), lines)
	}
	eightq := func(keys string) string { return fmt.Sprintf(`{%s,"workload":"eightq"}`, fmt.Sprintf(keys, coder.ID)) }

	for _, c := range []struct {
		name, path, body string
		status           int
		msg              string // in the error's message, for a refused body
	}{
		{"unknown key at the top level", "/v1/compress", eightq(`"coder_id":%q,"bogus":1`),
			http.StatusBadRequest, `unknown field "bogus"`},
		{"unknown key in items[i]", "/v1/decompress:batch",
			`{"items":[` + romItem + `,{"rom_b64":"QQ==","bogus":1}]}`,
			http.StatusBadRequest, `unknown field "bogus"`},
		{"unknown key in lines[i]", "/v1/decompress",
			linesItem(bytes.Replace(lines, []byte("}]"), []byte(`,"bogus":true}]`), 1)),
			http.StatusBadRequest, `unknown field "bogus"`},
		{"case-folded known keys", "/v1/compress", eightq(`"Coder_ID":%q,"WORD_aligned":true`),
			http.StatusOK, ""},
		{"escaped known key", "/v1/compress", eightq(`"coder\u005fid":%q`), http.StatusOK, ""},
		{"escaped unknown key", "/v1/compress", eightq(`"coder_id":%q,"\u0062ogus":1`),
			http.StatusBadRequest, `unknown field "bogus"`},
		{"whitespace only", "/v1/compress", " \r\n\t ", http.StatusBadRequest, "empty request body"},
		{"trailing bytes", "/v1/compress", eightq(`"coder_id":%q`) + " {}",
			http.StatusBadRequest, "after top-level value"},
		{"bad base64 in item 1 of 3", "/v1/decompress:batch",
			`{"items":[` + romItem + `,{"rom_b64":"!!!"},` + linesItem(lines) + `]}`, http.StatusOK, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			rec := post(c.path, c.body)
			if rec.Code != c.status {
				t.Fatalf("%d %s, want %d", rec.Code, rec.Body, c.status)
			}
			if c.status != http.StatusOK {
				var eb errorBody
				if json.Unmarshal(rec.Body.Bytes(), &eb) != nil || eb.Error == nil ||
					eb.Error.Code != CodeBadRequest || !strings.Contains(eb.Error.Message, c.msg) {
					t.Fatalf("error %s, want %s mentioning %q", rec.Body, CodeBadRequest, c.msg)
				}
				return
			}
			if c.path != "/v1/decompress:batch" {
				return
			}
			var out decompressBatchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || len(out.Items) != 3 || out.Errors != 1 {
				t.Fatalf("batch answer %s, want 3 items and 1 error", rec.Body)
			}
			if e := out.Items[1].Error; e == nil || e.Code != CodeBadRequest || !strings.Contains(e.Message, "invalid base64") {
				t.Errorf("item 1 = %+v, want a bad_request for its base64", out.Items[1])
			}
			for _, i := range []int{0, 2} {
				if r := out.Items[i].Result; r == nil || r.OriginalBytes != comp.OriginalBytes {
					t.Errorf("item %d = %+v, want the %d-byte text", i, out.Items[i], comp.OriginalBytes)
				}
			}
		})
	}
}

// heldBytes bounds what the allocator hands out for an n-byte object:
// whole 8 KiB pages for one over 32 KiB, a size class at most a quarter
// larger for a smaller one.
func heldBytes(n int) uint64 {
	if n > 32<<10 {
		return uint64(n+8191) &^ 8191
	}
	return uint64(n + n/4)
}

// decodeAllocs returns the bytes that decoding body into a new value of
// v's type allocates, payloads included (decodePayloads). A first decode
// fills the body reader's pool and the type's walk plan; the request
// itself is the transport's, made before counting. The collector is off
// and one P runs, as in testing.AllocsPerRun, so the pooled block stays
// where the next Get finds it.
func decodeAllocs(t *testing.T, body []byte, declared int64, v any) uint64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	decode := func() uint64 {
		r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
		if declared > 0 {
			r.ContentLength = declared
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		req := reflect.New(reflect.TypeOf(v).Elem()).Interface()
		if err := decodeRequest(nil, r, req); err != nil {
			t.Fatal(err)
		}
		decodePayloads(t, req)
		runtime.ReadMemStats(&after)
		reflect.ValueOf(v).Elem().Set(reflect.ValueOf(req).Elem())
		return after.TotalAlloc - before.TotalAlloc
	}
	decode()
	return decode()
}

// decodePayloads decodes req's base64 payload as its handler does.
func decodePayloads(t *testing.T, req any) {
	t.Helper()
	var err error
	switch req := req.(type) {
	case *decompressRequest:
		if _, err = req.ROMB64.decode(); len(req.ROMB64) == 0 {
			_, err = req.BlocksB64.decode()
		}
	case *compressRequest:
		_, err = req.TextB64.decode()
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestDecodeRequestAllocs: decoding a request and then its base64
// payload allocates the body once, the payload once and the lines slice
// once, each rounded up as the allocator rounds it, and at most 2 KiB
// besides. The bodies are eightq's and espresso's /v1/decompress bodies
// in both forms and a 16 KiB /v1/compress window.
func TestDecodeRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	code, err := experiments.PreselectedCode()
	if err != nil {
		t.Fatal(err)
	}
	const slack = 2 << 10
	for _, prog := range []string{"eightq", "espresso"} {
		w, _ := workload.ByName(prog)
		text, err := w.Text()
		if err != nil {
			t.Fatal(err)
		}
		rom, err := core.BuildROM(text, core.Options{Codes: []*huffman.Code{code}})
		if err != nil {
			t.Fatal(err)
		}
		var file bytes.Buffer
		if err := rom.WriteFile(&file); err != nil {
			t.Fatal(err)
		}
		lines := make([]lineInfo, len(rom.Lines))
		for i := range lines {
			lines[i] = lineInfo{Len: len(rom.Stored(i)), Raw: rom.Raw(i)}
		}
		window := text[:min(len(text), 16<<10)]
		lineBytes := len(lines) * int(reflect.TypeFor[lineInfo]().Size())
		for _, c := range []struct {
			form      string
			req       any
			payload   int
			lineBytes int
		}{
			{"lines", &decompressRequest{CoderID: "0123", BlocksB64: b64(rom.Blocks), Lines: lines}, len(rom.Blocks), lineBytes},
			{"rom", &decompressRequest{ROMB64: b64(file.Bytes())}, file.Len(), 0},
			{"compress", &compressRequest{CoderID: "0123", TextB64: b64(window)}, len(window), 0},
		} {
			body, err := json.Marshal(c.req)
			if err != nil {
				t.Fatal(err)
			}
			got := reflect.New(reflect.TypeOf(c.req).Elem()).Interface()
			grew := decodeAllocs(t, body, 0, got)
			if !reflect.DeepEqual(got, c.req) {
				t.Fatalf("%s %s: body decodes to a different request", prog, c.form)
			}
			want := heldBytes(len(body)) + heldBytes(c.payload) + slack
			if c.lineBytes > 0 {
				want += heldBytes(c.lineBytes)
			}
			if grew > want {
				t.Errorf("%s %s: a %d-byte body with a %d-byte payload and %d bytes of lines allocated %d bytes, want at most %d",
					prog, c.form, len(body), c.payload, c.lineBytes, grew, want)
			}
		}
	}
}

// TestDecodeRequestDeclaredLength: a Content-Length is a claim. A
// request that declares MaxBodyBytes and sends 1 KiB, most of it a
// 700-byte payload, allocates that KiB, the payload and at most 1 KiB
// besides.
func TestDecodeRequestDeclaredLength(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	payload := bytes.Repeat([]byte("ccrp"), 175)
	req := compressRequest{CoderID: "0123", TextB64: b64(payload)}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	body = append(body, bytes.Repeat([]byte{' '}, 1024-len(body))...)
	var got compressRequest
	want := heldBytes(len(body)) + heldBytes(len(payload)) + 1<<10
	if grew := decodeAllocs(t, body, MaxBodyBytes, &got); grew > want {
		t.Errorf("a %d-byte body declaring %d bytes allocated %d bytes, want at most %d", len(body), MaxBodyBytes, grew, want)
	}
	if !reflect.DeepEqual(got, req) {
		t.Errorf("body decodes to %+v, want %+v", got, req)
	}
}

// TestB64FieldDecode: a base64 field decodes to what
// base64.StdEncoding.DecodeString gives for its string, error or not,
// and a well-formed one into a slice of exactly that length.
func TestB64FieldDecode(t *testing.T) {
	for _, s := range []string{
		"", "QQ==", "QUI=", "QUJD", "QUJDRA==", "QUJDREU=", "QUJDREVG",
		"====", "Q===", "QQ=", "QQ", "QQ==QUJD", "QUJD====", "QUJ=QUJD", "QUJDQQ=\n=",
		"QUJD\r\nRA==", "QU\nJD", "!!!!", "QUJD\x00", "QUJDREVGR0g=",
	} {
		got, err := b64Field(s).decode()
		want, wantErr := base64.StdEncoding.DecodeString(s)
		if (err == nil) != (wantErr == nil) || (err == nil && !bytes.Equal(got, want)) {
			t.Errorf("%q: decode = %q, %v; DecodeString = %q, %v", s, got, err, want, wantErr)
		}
		if err == nil && !strings.ContainsAny(s, "\r\n") && cap(got) != len(got) {
			t.Errorf("%q: %d bytes in a slice of capacity %d", s, len(got), cap(got))
		}
	}
}
