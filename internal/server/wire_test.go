package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"testing"

	"ccrp/internal/core"
	"ccrp/internal/workload"
)

// TestWireBodies: /v1/compress, /v1/decompress and both :batch routes
// answer with one line of compact JSON, and each base64 field carries
// exactly the library's bytes: blocks_b64 is the ROM's Blocks, rom_b64
// its CROM file and text_b64 its padded text. The fields are read as
// JSON strings and decoded here, not through the handlers' own types.
func TestWireBodies(t *testing.T) {
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
	var file bytes.Buffer
	if err := rom.WriteFile(&file); err != nil {
		t.Fatal(err)
	}

	// post returns the body of a 200 answer after checking that it is
	// one line of JSON with no insignificant whitespace.
	post := func(t *testing.T, path string, req any) []byte {
		t.Helper()
		resp, body := postJSON(t, ts.URL+path, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", path, resp.StatusCode, body)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, body); err != nil {
			t.Fatalf("%s: body does not parse: %v", path, err)
		}
		if compact.WriteByte('\n'); !bytes.Equal(body, compact.Bytes()) {
			t.Fatalf("%s: body is not one line of compact JSON:\n%s", path, body)
		}
		return body
	}
	// field decodes the base64 string at the end of a path of object keys
	// and array indices.
	field := func(t *testing.T, body []byte, path ...any) []byte {
		t.Helper()
		var v any
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		for _, k := range path {
			switch k := k.(type) {
			case string:
				v = v.(map[string]any)[k]
			case int:
				v = v.([]any)[k]
			}
		}
		str, ok := v.(string)
		if !ok {
			t.Fatalf("%v is %T, want a base64 string", path, v)
		}
		p, err := base64.StdEncoding.DecodeString(str)
		if err != nil {
			t.Fatalf("%v: %v", path, err)
		}
		return p
	}
	want := func(t *testing.T, what string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes on the wire differ from the library's %d", what, len(got), len(want))
		}
	}

	comp := post(t, "/v1/compress", compressRequest{CoderID: id, Workload: "eightq"})
	want(t, "compress blocks_b64", field(t, comp, "blocks_b64"), rom.Blocks)
	want(t, "compress rom_b64", field(t, comp, "rom_b64"), file.Bytes())

	batch := post(t, "/v1/compress:batch", compressBatchRequest{CoderID: id,
		Items: []compressBatchItem{{Workload: "eightq"}, {TextB64: b64(text)}}})
	for i := range 2 {
		want(t, "compress:batch blocks_b64", field(t, batch, "items", i, "result", "blocks_b64"), rom.Blocks)
		want(t, "compress:batch rom_b64", field(t, batch, "items", i, "result", "rom_b64"), file.Bytes())
	}

	dec := post(t, "/v1/decompress", decompressRequest{ROMB64: b64(file.Bytes())})
	want(t, "decompress text_b64", field(t, dec, "text_b64"), rom.Text())

	var lines []lineInfo
	for i := range rom.Lines {
		lines = append(lines, lineInfo{Len: len(rom.Stored(i)), Raw: rom.Raw(i)})
	}
	decBatch := post(t, "/v1/decompress:batch", decompressBatchRequest{Items: []decompressRequest{
		{ROMB64: b64(file.Bytes())},
		{CoderID: id, BlocksB64: b64(rom.Blocks), Lines: lines},
	}})
	for i := range 2 {
		want(t, "decompress:batch text_b64", field(t, decBatch, "items", i, "result", "text_b64"), rom.Text())
	}
}
