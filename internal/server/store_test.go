package server

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ccrp/internal/codepack"
	"ccrp/internal/core"
	"ccrp/internal/sweep"
)

// counterValue reads one named counter from the registry's Prometheus
// exposition, the surface an operator scrapes.
func counterValue(t *testing.T, s *Server, name string) string {
	t.Helper()
	var buf bytes.Buffer
	s.metricsMu.Lock()
	err := s.registry.WritePrometheus(&buf)
	s.metricsMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("metric %s not exported", name)
	return ""
}

// TestCoderEntryCodecRoundTrip: every coder kind survives the store
// codec with behavior intact.
func TestCoderEntryCodecRoundTrip(t *testing.T) {
	corpus := [][]byte{[]byte(strings.Repeat("the quick brown fox eats compressed instructions ", 40))}
	line := make([]byte, 32)
	copy(line, corpus[0])
	for _, kind := range []string{KindHuffman, KindBounded, KindPreselected, KindCodePack} {
		t.Run(kind, func(t *testing.T) {
			bound := 0
			if kind == KindBounded {
				bound = 14
			}
			c := corpus
			if kind == KindPreselected {
				c = nil
			}
			key := coderKey(kind, bound, c)
			orig, err := buildCoder(sweep.HashBytes([]byte(key)), kind, bound, c)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := encodeCoderEntry(orig)
			if err != nil {
				t.Fatal(err)
			}
			back, err := decodeCoderEntry(blob)
			if err != nil {
				t.Fatal(err)
			}
			if back.ID != orig.ID || back.Kind != orig.Kind ||
				back.Bound != orig.Bound || back.CorpusBytes != orig.CorpusBytes {
				t.Fatalf("restored entry metadata differs: %+v vs %+v", back, orig)
			}
			if kind == KindCodePack {
				if _, ok := back.codec.(*codepack.Coder); !ok {
					t.Fatalf("restored codec is %T", back.codec)
				}
				enc, err := orig.codec.EncodeLine(line)
				if err != nil {
					t.Fatal(err)
				}
				dec := make([]byte, core.LineSize)
				if err := back.decodeLineInto(dec, enc); err != nil || !bytes.Equal(dec, line) {
					t.Fatalf("restored codepack decode = (%x, %v), want original line", dec, err)
				}
				return
			}
			if orig.codes[0].Lengths() != back.codes[0].Lengths() {
				t.Fatal("restored code lengths differ")
			}
		})
	}

	t.Run("garbage", func(t *testing.T) {
		if _, err := decodeCoderEntry([]byte("not gob")); err == nil {
			t.Fatal("decodeCoderEntry accepted garbage")
		}
	})
}

// TestWarmStartServesWithoutRetraining is the restart-survival property
// end to end: train on daemon A with a store, boot daemon B on the same
// store, and B must serve the coder id — and identical compressed bytes
// — with zero coder builds.
func TestWarmStartServesWithoutRetraining(t *testing.T) {
	dir := t.TempDir()
	store, err := sweep.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	// First life: train two coders and compress a workload.
	s1, ts1 := newTestServer(t, Config{Store: store})
	id := trainPreselected(t, ts1.URL)
	resp, body := postJSON(t, ts1.URL+"/v1/coders", trainRequest{Kind: KindCodePack, Workloads: []string{"eightq"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("train codepack: %d %s", resp.StatusCode, body)
	}
	cpID := decodeAs[coderInfo](t, body).ID
	resp, body = postJSON(t, ts1.URL+"/v1/compress", compressRequest{CoderID: id, Workload: "eightq"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: %d %s", resp.StatusCode, body)
	}
	first := decodeAs[compressResponse](t, body)
	if got := counterValue(t, s1, "ccrpd_coder_builds_total"); got != "2" {
		t.Fatalf("first life built %s coders, want 2", got)
	}
	if got, _ := strconv.Atoi(counterValue(t, s1, "ccrpd_store_writes_total")); got < 2 {
		t.Fatalf("first life persisted %d artifacts, want >= 2 (two coders)", got)
	}
	ts1.Close()

	// Second life: same store, fresh process.
	store2, err := sweep.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServer(t, Config{Store: store2})
	n, err := s2.WarmStart(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("warm start registered %d coders, want 2", n)
	}

	// The ids resolve without retraining.
	for _, cid := range []string{id, cpID} {
		resp, body := postJSON(t, ts2.URL+"/v1/compress", compressRequest{CoderID: cid, Workload: "eightq"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm compress with %s: %d %s", cid, resp.StatusCode, body)
		}
	}
	// Retraining the same corpus is a store/cache hit, not a build.
	if got := trainPreselected(t, ts2.URL); got != id {
		t.Fatalf("retrained coder id %s, want %s", got, id)
	}
	resp, body = postJSON(t, ts2.URL+"/v1/compress", compressRequest{CoderID: id, Workload: "eightq"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm compress: %d %s", resp.StatusCode, body)
	}
	second := decodeAs[compressResponse](t, body)
	if first.ROMB64 != second.ROMB64 || first.BlocksB64 != second.BlocksB64 {
		t.Fatal("compressed bytes differ across a restart")
	}

	// The batch path also runs entirely from restored artifacts.
	resp, body = postJSON(t, ts2.URL+"/v1/compress:batch", compressBatchRequest{
		CoderID: id, Items: []compressBatchItem{{Workload: "eightq"}, {Workload: "eightq"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm compress:batch: %d %s", resp.StatusCode, body)
	}
	batch := decodeAs[compressBatchResponse](t, body)
	if batch.Errors != 0 || len(batch.Items) != 2 {
		t.Fatalf("warm batch = %d items, %d errors; want 2 items, 0 errors", len(batch.Items), batch.Errors)
	}
	for i, it := range batch.Items {
		if it.Result == nil || it.Result.BlocksB64 != second.BlocksB64 {
			t.Errorf("warm batch item %d differs from the single-request result", i)
		}
	}

	if got := counterValue(t, s2, "ccrpd_coder_builds_total"); got != "0" {
		t.Fatalf("second life built %s coders, want 0", got)
	}
	if got := counterValue(t, s2, "ccrpd_store_warm_coders"); got != "2" {
		t.Fatalf("warm gauge = %s, want 2", got)
	}
	if got := counterValue(t, s2, "ccrpd_store_corrupt_total"); got != "0" {
		t.Errorf("clean restart counted %s corrupt artifacts, want 0", got)
	}
	if got, _ := strconv.Atoi(counterValue(t, s2, "ccrpd_store_hits_total")); got < 2 {
		t.Errorf("second life took %d store hits, want >= 2", got)
	}
}

// TestWarmStartSkipsCorruptArtifacts: a damaged store entry is counted,
// skipped, and rebuilt on demand — never served.
func TestWarmStartSkipsCorruptArtifacts(t *testing.T) {
	dir := t.TempDir()
	store, err := sweep.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, Config{Store: store})
	id := trainPreselected(t, ts1.URL)
	ts1.Close()

	// Flip one byte in every stored artifact.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	damaged := 0
	for _, ent := range ents {
		path := filepath.Join(dir, ent.Name())
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-1] ^= 0x01
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		damaged++
	}
	if damaged == 0 {
		t.Fatal("store is empty; nothing was persisted")
	}

	store2, err := sweep.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServer(t, Config{Store: store2})
	if n, err := s2.WarmStart(context.Background()); err != nil || n != 0 {
		t.Fatalf("warm start over a corrupt store = (%d, %v), want (0, nil)", n, err)
	}
	if got := counterValue(t, s2, "ccrpd_store_corrupt_total"); got == "0" {
		t.Fatal("corruption was not counted")
	}
	// Training again rebuilds (build counter moves) and repairs the store.
	if got := trainPreselected(t, ts2.URL); got != id {
		t.Fatalf("rebuilt coder id %s, want %s", got, id)
	}
	if got := counterValue(t, s2, "ccrpd_coder_builds_total"); got != "1" {
		t.Fatalf("rebuild count = %s, want 1", got)
	}
}
