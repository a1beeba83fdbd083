package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
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

// codeLengths returns the codeword lengths of a Huffman-kind coder.
func codeLengths(t *testing.T, e *coderEntry) [256]uint8 {
	t.Helper()
	hc, ok := e.codec.(core.HuffmanCodec)
	if !ok {
		t.Fatalf("coder %s holds %T, want a Huffman code", e.ID, e.codec)
	}
	return hc.Code().Lengths()
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
			enc, err := orig.codec.AppendLine(nil, line)
			if err != nil {
				t.Fatal(err)
			}
			dec := make([]byte, core.LineSize)
			if err := back.codec.DecodeLineInto(dec, enc); err != nil || !bytes.Equal(dec, line) {
				t.Fatalf("restored %T decode = (%x, %v), want original line", back.codec, dec, err)
			}
			if kind == KindCodePack {
				if _, ok := back.codec.(*codepack.Coder); !ok {
					t.Fatalf("restored codec is %T", back.codec)
				}
				return
			}
			if codeLengths(t, orig) != codeLengths(t, back) {
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
// store, and B must serve the coder ids — each read from the store once,
// on first use — and identical compressed bytes, single and batched,
// with zero coder builds.
func TestWarmStartServesWithoutRetraining(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
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
	store2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServer(t, Config{Store: store2})

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
	if !bytes.Equal(first.ROMB64, second.ROMB64) || !bytes.Equal(first.BlocksB64, second.BlocksB64) {
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
		if it.Result == nil || !bytes.Equal(it.Result.BlocksB64, second.BlocksB64) {
			t.Errorf("warm batch item %d differs from the single-request result", i)
		}
	}

	if got := counterValue(t, s2, "ccrpd_coder_builds_total"); got != "0" {
		t.Fatalf("second life built %s coders, want 0", got)
	}
	if got := counterValue(t, s2, "ccrpd_store_corrupt_total"); got != "0" {
		t.Errorf("clean restart counted %s corrupt artifacts, want 0", got)
	}
	if got := counterValue(t, s2, "ccrpd_store_hits_total"); got != "2" {
		t.Errorf("second life took %s store hits, want 2: one per coder", got)
	}
}

// TestStoredCoderReadOnce: after a restart on a store, a stored coder is
// read once, on first use, whichever request uses it first and however
// many use it after: compress by its id, train the same corpus, GET the
// id.
func TestStoredCoderReadOnce(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reqs := []trainRequest{{Kind: KindPreselected}, {Kind: KindCodePack, Workloads: []string{"eightq"}}}
	_, ts1 := newTestServer(t, Config{Store: st})
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		resp, body := postJSON(t, ts1.URL+"/v1/coders", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("train %s: %d %s", req.Kind, resp.StatusCode, body)
		}
		ids[i] = decodeAs[coderInfo](t, body).ID
	}
	ts1.Close()

	s2, ts2 := newTestServer(t, Config{Store: st})
	for i, req := range reqs {
		if resp, body := postJSON(t, ts2.URL+"/v1/compress", compressRequest{CoderID: ids[i], Workload: "eightq"}); resp.StatusCode != http.StatusOK {
			t.Fatalf("compress with stored %s coder: %d %s", req.Kind, resp.StatusCode, body)
		}
		resp, body := postJSON(t, ts2.URL+"/v1/coders", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("retrain %s: %d %s", req.Kind, resp.StatusCode, body)
		}
		if info := decodeAs[coderInfo](t, body); info.ID != ids[i] || !info.Cached {
			t.Errorf("retrain %s = id %s cached %v, want id %s cached true", req.Kind, info.ID, info.Cached, ids[i])
		}
		get, err := http.Get(ts2.URL + "/v1/coders/" + ids[i])
		if err != nil {
			t.Fatal(err)
		}
		get.Body.Close()
		if get.StatusCode != http.StatusOK {
			t.Fatalf("GET stored %s coder: %d", req.Kind, get.StatusCode)
		}
	}
	if got := counterValue(t, s2, "ccrpd_store_hits_total"); got != "2" {
		t.Errorf("store hits = %s for 2 stored coders, want 2: one read per coder", got)
	}
	if got := counterValue(t, s2, "ccrpd_coder_builds_total"); got != "0" {
		t.Errorf("builds = %s, want 0", got)
	}
}

// TestStoredCoderReadOnceConcurrently: concurrent first uses of a
// stored coder share one store read. Each of 20 rounds starts a fresh
// server over one store and sends 8 GETs of a CodePack coder at once.
func TestStoredCoderReadOnceConcurrently(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Store: st})
	resp, body := postJSON(t, ts.URL+"/v1/coders", trainRequest{Kind: KindCodePack, Workloads: []string{"eightq"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("train: %d %s", resp.StatusCode, body)
	}
	id := decodeAs[coderInfo](t, body).ID
	ts.Close()

	for round := range 20 {
		s, ts := newTestServer(t, Config{Store: st})
		var wg sync.WaitGroup
		for range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				get, err := http.Get(ts.URL + "/v1/coders/" + id)
				if err != nil {
					t.Error(err)
					return
				}
				get.Body.Close()
				if get.StatusCode != http.StatusOK {
					t.Errorf("GET stored coder: %d", get.StatusCode)
				}
			}()
		}
		wg.Wait()
		ts.Close()
		if got := counterValue(t, s, "ccrpd_store_hits_total"); got != "1" {
			t.Fatalf("round %d: store hits = %s for 8 concurrent GETs, want 1", round, got)
		}
	}
}

// TestWarmStartSkipsCorruptArtifacts: after a restart, a damaged store
// entry is counted on first access, never served, and repaired by
// training.
func TestWarmStartSkipsCorruptArtifacts(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
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

	store2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServer(t, Config{Store: store2})
	if got := counterValue(t, s2, "ccrpd_store_corrupt_total"); got != "0" {
		t.Fatalf("corruption counted before any access: %s", got)
	}
	resp, body := postJSON(t, ts2.URL+"/v1/compress", compressRequest{CoderID: id, Workload: "eightq"})
	wantError(t, resp, body, http.StatusNotFound, CodeNotFound)
	if got := counterValue(t, s2, "ccrpd_store_corrupt_total"); got != "1" {
		t.Fatalf("corrupt count after the first access = %s, want 1", got)
	}
	// Training again rebuilds (build counter moves) and repairs the store.
	if got := trainPreselected(t, ts2.URL); got != id {
		t.Fatalf("rebuilt coder id %s, want %s", got, id)
	}
	if got := counterValue(t, s2, "ccrpd_coder_builds_total"); got != "1" {
		t.Fatalf("rebuild count = %s, want 1", got)
	}
	if _, err := store2.load(id); err != nil {
		t.Fatalf("the rebuild did not repair the file: %v", err)
	}
	if resp, body := postJSON(t, ts2.URL+"/v1/compress", compressRequest{CoderID: id, Workload: "eightq"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("compress after the rebuild: %d %s", resp.StatusCode, body)
	}
}

// joinStoreFile is a version 1 store file: hdr's JSON line, then
// payload.
func joinStoreFile(t *testing.T, hdr storeHeader, payload []byte) []byte {
	t.Helper()
	line, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	return append(append(line, '\n'), payload...)
}

// splitStoreFile is joinStoreFile's inverse.
func splitStoreFile(t *testing.T, raw []byte) (storeHeader, []byte) {
	t.Helper()
	line, payload, _ := bytes.Cut(raw, []byte{'\n'})
	var hdr storeHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		t.Fatal(err)
	}
	return hdr, payload
}

// writeStoreFile files payload under key as any daemon writing version
// 1 would.
func writeStoreFile(t *testing.T, dir, key, class string, payload []byte) {
	t.Helper()
	hdr := storeHeader{V: storeVersion, Key: key, Class: class, Len: len(payload), SHA256: sweep.HashBytes(payload)}
	writeFile(t, filepath.Join(dir, sweep.HashBytes([]byte(key))+storeExt), joinStoreFile(t, hdr, payload))
}

// TestStoreRoundTrip: a saved coder loads back under its id and is
// listed from its header, and a successful save leaves no stray
// temporary file.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := coderKey(KindPreselected, 0, nil)
	id := sweep.HashBytes([]byte(key))
	if _, err := st.load(id); !errors.Is(err, errNotStored) {
		t.Fatalf("load of an absent id: %v, want errNotStored", err)
	}
	orig, err := buildCoder(id, KindPreselected, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.save(key, orig); err != nil {
		t.Fatal(err)
	}
	back, err := st.load(id)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != id || back.Kind != KindPreselected || codeLengths(t, back) != codeLengths(t, orig) {
		t.Fatalf("loaded coder %+v differs from the saved one", back)
	}
	arts, err := st.list()
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := encodeCoderEntry(orig)
	if len(arts) != 1 || arts[0].ID != id || arts[0].Kind != artifactClassCoder ||
		arts[0].Size != len(blob) || arts[0].MTime.IsZero() {
		t.Fatalf("list = %+v, want the one coder %s of %d bytes", arts, id, len(blob))
	}
	files, _ := os.ReadDir(dir)
	if len(files) != 1 || files[0].Name() != id+storeExt {
		t.Errorf("store files = %v, want only %s%s", files, id, storeExt)
	}
}

// TestOpenStoreRefusesUnlistableDirectory: a store directory that
// cannot be listed fails OpenStore, so ccrpd stops at boot and not at
// the first request that reads a coder. Root lists a directory of mode
// 000, so the test runs only as another user.
func TestOpenStoreRefusesUnlistableDirectory(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("root can list a directory of mode 000")
	}
	dir := filepath.Join(t.TempDir(), "store")
	if err := os.Mkdir(dir, 0o000); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(dir, 0o755) })
	if _, err := OpenStore(dir); err == nil {
		t.Fatal("OpenStore accepted a directory it cannot list")
	}
}

// TestStoreLoadRejectsMalformedIDs: an id that is not 64 lowercase hex
// digits is "not stored" before any file is opened. The store's
// directory is a regular file here, so any open under it would fail
// with an error other than errNotStored.
func TestStoreLoadRejectsMalformedIDs(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	st := &Store{dir: notDir}
	id := sweep.HashBytes([]byte("any key"))
	if _, err := st.load(id); err == nil || errors.Is(err, errNotStored) {
		t.Fatalf("load(%s) under a file = %v; the check below needs an open to fail otherwise", id, err)
	}
	for _, bad := range []string{
		"", "deadbeef", "../../etc/passwd", id[:63], id + "0",
		strings.ToUpper(id), "../" + id[3:], id[:63] + "g", id[:62] + "/a",
	} {
		if _, err := st.load(bad); !errors.Is(err, errNotStored) {
			t.Errorf("load(%q) = %v, want errNotStored without touching the file system", bad, err)
		}
	}
}

// TestStoreRejectsCorruptFiles: every damage mode is rejected as
// corrupt and counted, training rebuilds the coder rather than serving
// the damaged bytes, and the rebuild repairs the file. Each mode from
// "edited payload" on fails exactly one of load's checks.
func TestStoreRejectsCorruptFiles(t *testing.T) {
	corpus := []byte(strings.Repeat("another coder's corpus ", 8))
	cases := []struct {
		name string
		// corrupt returns the damaged version of the preselected
		// coder's file, own, given another coder's file.
		corrupt func(t *testing.T, own, other []byte) []byte
	}{
		{"truncated file", func(t *testing.T, own, _ []byte) []byte {
			return own[:len(own)-7]
		}},
		{"flipped payload byte", func(t *testing.T, own, _ []byte) []byte {
			own[len(own)-1] ^= 0x40
			return own
		}},
		{"empty file", func(t *testing.T, _, _ []byte) []byte {
			return nil
		}},
		{"edited payload", func(t *testing.T, own, _ []byte) []byte {
			// Same length, still a well-formed coder of this id.
			hdr, payload := splitStoreFile(t, own)
			edited := bytes.Replace(payload, []byte(KindPreselected), []byte("Preselected"), 1)
			if bytes.Equal(edited, payload) {
				t.Fatal("payload does not spell the coder's kind")
			}
			return joinStoreFile(t, hdr, edited)
		}},
		{"wrong length in header", func(t *testing.T, own, _ []byte) []byte {
			hdr, payload := splitStoreFile(t, own)
			hdr.Len++
			return joinStoreFile(t, hdr, payload)
		}},
		{"wrong key in header", func(t *testing.T, own, other []byte) []byte {
			hdr, payload := splitStoreFile(t, own)
			otherHdr, _ := splitStoreFile(t, other)
			hdr.Key = otherHdr.Key
			return joinStoreFile(t, hdr, payload)
		}},
		{"other class", func(t *testing.T, own, _ []byte) []byte {
			hdr, payload := splitStoreFile(t, own)
			hdr.Class = "rom"
			return joinStoreFile(t, hdr, payload)
		}},
		{"payload of another coder", func(t *testing.T, own, other []byte) []byte {
			hdr, _ := splitStoreFile(t, own)
			_, payload := splitStoreFile(t, other)
			hdr.Len, hdr.SHA256 = len(payload), sweep.HashBytes(payload)
			return joinStoreFile(t, hdr, payload)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			_, ts1 := newTestServer(t, Config{Store: st})
			id := trainPreselected(t, ts1.URL)
			resp, body := postJSON(t, ts1.URL+"/v1/coders", trainRequest{
				Kind: KindHuffman, CorpusB64: []b64Field{b64(corpus)}})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("train huffman: %d %s", resp.StatusCode, body)
			}
			other := decodeAs[coderInfo](t, body).ID
			writeFile(t, st.path(id), tc.corrupt(t, readFile(t, st.path(id)), readFile(t, st.path(other))))

			if _, err := st.load(id); err == nil || errors.Is(err, errNotStored) {
				t.Fatalf("load of the damaged file = %v, want a corruption error", err)
			}
			s2, ts2 := newTestServer(t, Config{Store: st})
			if got := trainPreselected(t, ts2.URL); got != id {
				t.Fatalf("rebuilt coder id %s, want %s", got, id)
			}
			for name, want := range map[string]string{
				"ccrpd_store_corrupt_total": "1",
				"ccrpd_store_misses_total":  "0",
				"ccrpd_coder_builds_total":  "1",
				"ccrpd_store_writes_total":  "1",
				"ccrpd_store_hits_total":    "0",
			} {
				if got := counterValue(t, s2, name); got != want {
					t.Errorf("%s = %s, want %s", name, got, want)
				}
			}

			// The rebuild repaired the file: a fresh node reads both
			// coders on first use and trains nothing.
			s3, ts3 := newTestServer(t, Config{Store: st})
			for _, cid := range []string{id, other} {
				if resp, body := postJSON(t, ts3.URL+"/v1/compress", compressRequest{CoderID: cid, Workload: "eightq"}); resp.StatusCode != http.StatusOK {
					t.Fatalf("repaired store: compress with %s: %d %s", cid, resp.StatusCode, body)
				}
			}
			trainPreselected(t, ts3.URL)
			for name, want := range map[string]string{
				"ccrpd_coder_builds_total":  "0",
				"ccrpd_store_corrupt_total": "0",
				"ccrpd_store_hits_total":    "2",
			} {
				if got := counterValue(t, s3, name); got != want {
					t.Errorf("repaired store: %s = %s, want %s", name, got, want)
				}
			}
		})
	}
}

// TestStoreSaveFailureIsNotFatal: a store that cannot persist does not
// fail the train; the coder is served from memory, only durability is
// lost.
func TestStoreSaveFailureIsNotFatal(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Store: st})
	id := trainPreselected(t, ts.URL)
	if resp, body := postJSON(t, ts.URL+"/v1/compress", compressRequest{CoderID: id, Workload: "eightq"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("compress with an unsaved coder: %d %s", resp.StatusCode, body)
	}
	if got := counterValue(t, s, "ccrpd_coder_builds_total"); got != "1" {
		t.Errorf("builds = %s, want 1", got)
	}
	if got := counterValue(t, s, "ccrpd_store_misses_total"); got != "1" {
		t.Errorf("misses = %s, want 1: the probe fell through to the build", got)
	}
	if got := counterValue(t, s, "ccrpd_store_writes_total"); got != "0" {
		t.Errorf("writes = %s, want 0: the save had nowhere to go", got)
	}
}

// TestStoreV1Compatibility pins the file format: testdata/store-v1
// holds a preselected coder and a codepack coder trained on eightq,
// written by ccrpd -store before the store moved into this package. A
// node on that store reads each on first use, builds neither, and
// compresses byte-identically to a node that trains them afresh.
func TestStoreV1Compatibility(t *testing.T) {
	dir := t.TempDir()
	fixtures, err := filepath.Glob(filepath.Join("testdata", "store-v1", "*"+storeExt))
	if err != nil || len(fixtures) != 2 {
		t.Fatalf("fixtures = %v (err %v), want 2 coder files", fixtures, err)
	}
	for _, f := range fixtures {
		writeFile(t, filepath.Join(dir, filepath.Base(f)), readFile(t, f))
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm, tsWarm := newTestServer(t, Config{Store: st})

	_, tsFresh := newTestServer(t, Config{})
	for _, req := range []trainRequest{
		{Kind: KindPreselected},
		{Kind: KindCodePack, Workloads: []string{"eightq"}},
	} {
		resp, body := postJSON(t, tsFresh.URL+"/v1/coders", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("train %s: %d %s", req.Kind, resp.StatusCode, body)
		}
		id := decodeAs[coderInfo](t, body).ID
		if _, err := os.Stat(filepath.Join(dir, id+storeExt)); err != nil {
			t.Fatalf("fresh %s coder %s has no v1 fixture: %v", req.Kind, id, err)
		}
		comp := compressRequest{CoderID: id, Workload: "eightq"}
		_, want := postJSON(t, tsFresh.URL+"/v1/compress", comp)
		resp, got := postJSON(t, tsWarm.URL+"/v1/compress", comp)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("%s: stored coder compresses to %d %d bytes, fresh one to %d bytes",
				req.Kind, resp.StatusCode, len(got), len(want))
		}
	}
	if got := counterValue(t, warm, "ccrpd_coder_builds_total"); got != "0" {
		t.Errorf("warm node ran %s builds, want 0", got)
	}
	if got := counterValue(t, warm, "ccrpd_store_hits_total"); got != "2" {
		t.Errorf("warm node read %s stored coders, want 2", got)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func writeFile(t *testing.T, path string, raw []byte) {
	t.Helper()
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}
