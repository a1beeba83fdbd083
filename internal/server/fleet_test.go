// Tests for the fleet-facing half of the server: readiness vs
// liveness across a drain, the /v1/artifacts catalogue, route-key
// derivation, and shared-store coder resolution across nodes.
package server

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"testing"
)

// TestReadyzDrainTransition pins the probe split the router's health
// checker depends on: before drain both probes answer 200; after
// BeginDrain, /readyz is 503 (out of rotation) while /healthz stays 200
// (the process is alive, finishing in-flight work) and the API still
// serves.
func TestReadyzDrainTransition(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	if code, body := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before drain: %d %s, want 200", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz before drain: %d, want 200", code)
	}

	s.BeginDrain()

	code, body := get("/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after BeginDrain: %d %s, want 503", code, body)
	}
	rb := decodeAs[readyzBody](t, body)
	if rb.Status != "draining" {
		t.Errorf("readyz body status = %q, want draining", rb.Status)
	}
	// Liveness and the API itself are unaffected by the readiness flip.
	code, body = get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz after BeginDrain: %d, want 200 for the whole drain window", code)
	}
	if hb := decodeAs[healthzBody](t, body); !hb.Draining {
		t.Error("healthz body does not report draining")
	}
	id := trainPreselected(t, ts.URL)
	if resp, b := postJSON(t, ts.URL+"/v1/compress", compressRequest{CoderID: id, Workload: "eightq"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("compress during drain: %d %s, want in-flight work to keep serving", resp.StatusCode, b)
	}
}

// TestArtifactsEndpoint: a store-backed node lists its artifacts with
// ids, kinds, sizes, and mtimes — only the coder, since a compressed ROM
// never persists — updates the ccrpd_store_bytes gauge, and a storeless
// node answers an empty catalogue rather than erroring.
func TestArtifactsEndpoint(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Store: store})
	id := trainPreselected(t, ts.URL)
	if resp, b := postJSON(t, ts.URL+"/v1/compress", compressRequest{CoderID: id, Workload: "eightq"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: %d %s", resp.StatusCode, b)
	}

	resp, body := getURL(t, ts.URL+"/v1/artifacts")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifacts: %d %s", resp.StatusCode, body)
	}
	out := decodeAs[artifactsResponse](t, body)
	if !out.Store {
		t.Error("store-backed node reports store=false")
	}
	// The coder, and no ROM artifact from the compress.
	kinds := map[string]int{}
	var coderID string
	for _, a := range out.Artifacts {
		kinds[a.Kind]++
		if a.Size <= 0 {
			t.Errorf("artifact %s has size %d, want > 0", a.ID, a.Size)
		}
		if a.MTime.IsZero() {
			t.Errorf("artifact %s has no mtime", a.ID)
		}
		if a.Kind == artifactClassCoder {
			coderID = a.ID
		}
	}
	if kinds[artifactClassCoder] != 1 || len(kinds) != 1 {
		t.Fatalf("artifact kinds = %v, want 1 coder and nothing else", kinds)
	}
	if files, err := os.ReadDir(dir); err != nil || len(files) != 1 {
		t.Fatalf("store holds %d files (err %v), want only the coder's", len(files), err)
	}
	// The coder artifact's public id IS the coder id clients hold.
	if coderID != id {
		t.Errorf("coder artifact id = %s, want the trained coder id %s", coderID, id)
	}
	if out.TotalBytes <= 0 {
		t.Errorf("total_bytes = %d, want > 0", out.TotalBytes)
	}
	if got := counterValue(t, s, "ccrpd_store_bytes"); got == "0" {
		t.Error("ccrpd_store_bytes gauge is 0 after listing a populated store")
	}
	// A ROM image an older daemon persisted is not listed.
	writeStoreFile(t, dir, "rom-from-an-older-daemon", "rom", []byte("stale"))
	_, body = getURL(t, ts.URL+"/v1/artifacts")
	if got := decodeAs[artifactsResponse](t, body).Artifacts; len(got) != 1 || got[0].Kind != artifactClassCoder {
		t.Errorf("catalogue over a store holding a stale ROM = %+v, want only the coder", got)
	}

	// Storeless node: empty catalogue, not an error.
	_, ts2 := newTestServer(t, Config{})
	resp, body = getURL(t, ts2.URL+"/v1/artifacts")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("storeless artifacts: %d %s", resp.StatusCode, body)
	}
	out2 := decodeAs[artifactsResponse](t, body)
	if out2.Store || len(out2.Artifacts) != 0 {
		t.Errorf("storeless catalogue = %+v, want empty with store=false", out2)
	}
}

// getURL GETs and reads one URL.
func getURL(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestSharedStoreCoderResolution is the failover contract: two nodes
// over one artifact store, a coder trained through node A, and node B —
// which has never seen the id — resolves it lazily from the store
// instead of 404ing, without retraining. This is what lets a router
// send a dead node's coder traffic to the ring successor mid-run.
func TestSharedStoreCoderResolution(t *testing.T) {
	dir := t.TempDir()
	storeA, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	storeB, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, tsA := newTestServer(t, Config{Store: storeA})
	sB, tsB := newTestServer(t, Config{Store: storeB})

	// Train through A only.
	id := trainPreselected(t, tsA.URL)
	respA, bodyA := postJSON(t, tsA.URL+"/v1/compress", compressRequest{CoderID: id, Workload: "eightq"})
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("compress via A: %d %s", respA.StatusCode, bodyA)
	}

	// B never trained it; resolution falls through to the shared store.
	respB, bodyB := postJSON(t, tsB.URL+"/v1/compress", compressRequest{CoderID: id, Workload: "eightq"})
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("compress via B: %d %s, want the coder restored from the shared store", respB.StatusCode, bodyB)
	}
	outA := decodeAs[compressResponse](t, bodyA)
	outB := decodeAs[compressResponse](t, bodyB)
	if !bytes.Equal(outA.BlocksB64, outB.BlocksB64) || !bytes.Equal(outA.ROMB64, outB.ROMB64) {
		t.Fatal("node B's output differs from node A's for the same coder id")
	}
	if got := counterValue(t, sB, "ccrpd_coder_builds_total"); got != "0" {
		t.Errorf("node B ran %s builds, want 0 (store restore, not retrain)", got)
	}
	if got := counterValue(t, sB, "ccrpd_store_hits_total"); got == "0" {
		t.Error("node B recorded no store hit for the restored coder")
	}

	// A genuinely unknown id still 404s after the store fallback.
	resp, body := postJSON(t, tsB.URL+"/v1/compress", compressRequest{
		CoderID: "00000000deadbeef00000000deadbeef00000000deadbeef00000000deadbeef", Workload: "eightq"})
	wantError(t, resp, body, http.StatusNotFound, CodeNotFound)
}

// TestRouteKey pins the gateway's key derivation against the backend's
// own id logic for every routed shape.
func TestRouteKey(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := trainPreselected(t, ts.URL)

	t.Run("train routes to the coder it will produce", func(t *testing.T) {
		key, kind := RouteKey(http.MethodPost, "/v1/coders", []byte(`{"kind":"preselected"}`))
		if kind != RouteKeyCoder || key != id {
			t.Fatalf("RouteKey(train) = (%s, %s), want the trained id (%s, coder)", key, kind, id)
		}
	})

	t.Run("coder_id bodies route by coder id", func(t *testing.T) {
		for _, path := range []string{"/v1/compress", "/v1/decompress", "/v1/compress:batch"} {
			key, kind := RouteKey(http.MethodPost, path, []byte(`{"coder_id":"abc123"}`))
			if kind != RouteKeyCoder || key != "abc123" {
				t.Errorf("RouteKey(%s) = (%s, %s), want (abc123, coder)", path, key, kind)
			}
		}
		key, kind := RouteKey(http.MethodPost, "/v1/decompress:batch",
			[]byte(`{"items":[{"coder_id":"abc123"},{"coder_id":"other"}]}`))
		if kind != RouteKeyCoder || key != "abc123" {
			t.Errorf("RouteKey(decompress:batch) = (%s, %s), want the first item's coder", key, kind)
		}
	})

	t.Run("coder path routes by path id", func(t *testing.T) {
		key, kind := RouteKey(http.MethodGet, "/v1/coders/deadbeef", nil)
		if kind != RouteKeyCoder || key != "deadbeef" {
			t.Errorf("RouteKey(GET coder) = (%s, %s)", key, kind)
		}
	})

	t.Run("keyless traffic hashes stably", func(t *testing.T) {
		k1, kind1 := RouteKey(http.MethodPost, "/v1/simulate", []byte(`{"workload":"eightq"}`))
		k2, _ := RouteKey(http.MethodPost, "/v1/simulate", []byte(`{"workload":"eightq"}`))
		k3, _ := RouteKey(http.MethodPost, "/v1/simulate", []byte(`{"workload":"towers"}`))
		if kind1 != RouteKeyHash {
			t.Errorf("simulate kind = %s, want hash", kind1)
		}
		if k1 != k2 {
			t.Error("identical keyless requests derived different keys")
		}
		if k1 == k3 {
			t.Error("different keyless requests collided")
		}
		// Malformed bodies still route.
		if k, _ := RouteKey(http.MethodPost, "/v1/compress", []byte(`{`)); k == "" {
			t.Error("malformed body produced an empty key")
		}
	})
}
