package server

import (
	"bytes"
	"encoding/base64"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

func TestLineCacheLRU(t *testing.T) {
	c := newLineCache(2)
	var st lineCacheStats
	k1 := lineKey("c", 0, []byte{1})
	k2 := lineKey("c", 1, []byte{2})
	k3 := lineKey("c", 2, []byte{3})

	dst := make([]byte, 1)
	if ok := c.get(k1, dst, &st); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.put(k1, []byte("a"), &st)
	c.put(k2, []byte("b"), &st)
	if ok := c.get(k1, dst, &st); !ok || string(dst) != "a" {
		t.Fatalf("get k1 = %q, %v", dst, ok)
	}
	// k1 is now most recent; inserting k3 must evict k2.
	c.put(k3, []byte("c"), &st)
	if ok := c.get(k2, dst, &st); ok {
		t.Fatal("k2 survived eviction from a size-2 LRU")
	}
	if ok := c.get(k1, dst, &st); !ok {
		t.Fatal("most-recent k1 was evicted")
	}
	if got := st.evictions.Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if st.hits.Load() != 2 || st.misses.Load() != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/2", st.hits.Load(), st.misses.Load())
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

func TestLineCacheKeyDiscriminates(t *testing.T) {
	base := lineKey("coder-a", 3, []byte{1, 2, 3})
	for name, other := range map[string]lineCacheKey{
		"coder":   lineKey("coder-b", 3, []byte{1, 2, 3}),
		"address": lineKey("coder-a", 4, []byte{1, 2, 3}),
		"content": lineKey("coder-a", 3, []byte{1, 2, 4}),
		"length":  lineKey("coder-a", 3, []byte{1, 2, 3, 0}),
	} {
		if other == base {
			t.Errorf("key ignores the %s component", name)
		}
	}
}

func TestLineCacheDisabledAndNil(t *testing.T) {
	var st lineCacheStats
	c := newLineCache(-1)
	if c != nil {
		t.Fatal("negative capacity should disable the cache")
	}
	c.put(lineKey("c", 0, nil), []byte("x"), &st)
	if ok := c.get(lineKey("c", 0, nil), make([]byte, 1), &st); ok {
		t.Fatal("nil cache reported a hit")
	}
	if c.len() != 0 {
		t.Fatal("nil cache reports residents")
	}
}

// TestDecompressLineCacheMetrics drives /v1/decompress twice with the
// same payload and reads the hit counters back through /metrics, the
// surface an operator scrapes.
func TestDecompressLineCacheMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := trainPreselected(t, ts.URL)

	text := bytes.Repeat([]byte("line cache payload: compressible text. "), 16)
	resp, body := postJSON(t, ts.URL+"/v1/compress", compressRequest{
		CoderID: id, TextB64: base64.StdEncoding.EncodeToString(text)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: %d %s", resp.StatusCode, body)
	}
	comp := decodeAs[compressResponse](t, body)

	var first, second decompressResponse
	for i, out := range []*decompressResponse{&first, &second} {
		resp, body = postJSON(t, ts.URL+"/v1/decompress", decompressRequest{
			CoderID: id, BlocksB64: comp.BlocksB64, Lines: comp.Lines})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("decompress %d: %d %s", i, resp.StatusCode, body)
		}
		*out = decodeAs[decompressResponse](t, body)
	}
	if first.TextB64 != second.TextB64 {
		t.Fatal("cached decompression is not byte-identical to the cold one")
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	prom, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	metricsText := string(prom)
	for _, want := range []string{
		"ccrpd_linecache_hits_total",
		"ccrpd_linecache_misses_total",
		"ccrpd_linecache_evictions_total",
		"ccrpd_linecache_resident_lines",
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
	// The second request must have hit for every compressed line.
	compressed := 0
	for _, l := range comp.Lines {
		if !l.Raw {
			compressed++
		}
	}
	if compressed == 0 {
		t.Fatal("test payload compressed no lines; cache path untested")
	}
	hits := promValue(t, metricsText, "ccrpd_linecache_hits_total")
	misses := promValue(t, metricsText, "ccrpd_linecache_misses_total")
	if hits < float64(compressed) {
		t.Errorf("hits = %v, want >= %d (one per compressed line on the warm pass)", hits, compressed)
	}
	if misses < float64(compressed) {
		t.Errorf("misses = %v, want >= %d (one per compressed line on the cold pass)", misses, compressed)
	}
}

// promValue extracts a sample value from Prometheus text exposition.
func promValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name+" ")), 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("/metrics lacks a sample for %s", name)
	return 0
}
