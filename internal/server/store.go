// Persistence: the durable-artifact side of ccrpd. In the paper the
// code is trained once, offline, and survives every power cycle. This
// file gives the daemon's trained coders the same property: written
// through sweep's content-addressed disk store, verified on the way back
// in, and re-registered on boot so a restarted daemon serves its whole
// coder catalogue without a single retrain. ROM images do not persist: a
// named workload's ROM rebuilds from its coder in milliseconds on first
// use, and client text is compressed per request (Server.buildROM).
package server

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"

	"ccrp/internal/codepack"
	"ccrp/internal/huffman"
	"ccrp/internal/sweep"
)

// artifactClassCoder is the artifact class recorded in every stored
// coder's header; warm start filters on it and the codec refuses a class
// mismatch.
const artifactClassCoder = "coder"

// coderEntryWire is the gob shape of a persisted coderEntry. The
// in-memory entry holds live *huffman.Code and core.LineCodec values;
// on disk those travel in their own binary forms and are rebuilt on
// decode, so a restored coder is byte-identical in behavior.
type coderEntryWire struct {
	ID          string
	Kind        string
	Bound       int
	CorpusBytes int
	Codes       [][]byte // huffman.Code.MarshalBinary, in order
	CodePack    []byte   // codepack.Coder.MarshalBinary, when Kind == codepack
}

// coderCodec serializes trained coders for the artifact store.
var coderCodec = sweep.Codec[*coderEntry]{
	Name:   artifactClassCoder,
	Encode: encodeCoderEntry,
	Decode: decodeCoderEntry,
}

func encodeCoderEntry(e *coderEntry) ([]byte, error) {
	wire := coderEntryWire{
		ID: e.ID, Kind: e.Kind, Bound: e.Bound, CorpusBytes: e.CorpusBytes,
	}
	for _, code := range e.codes {
		blob, err := code.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("coder %s: %w", e.ID, err)
		}
		wire.Codes = append(wire.Codes, blob)
	}
	if e.codec != nil {
		cp, ok := e.codec.(*codepack.Coder)
		if !ok {
			return nil, fmt.Errorf("coder %s: codec %T is not persistable", e.ID, e.codec)
		}
		blob, err := cp.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("coder %s: %w", e.ID, err)
		}
		wire.CodePack = blob
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		return nil, fmt.Errorf("coder %s: %w", e.ID, err)
	}
	return buf.Bytes(), nil
}

func decodeCoderEntry(blob []byte) (*coderEntry, error) {
	var wire coderEntryWire
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&wire); err != nil {
		return nil, fmt.Errorf("stored coder: %w", err)
	}
	if wire.ID == "" || wire.Kind == "" {
		return nil, fmt.Errorf("stored coder: missing id or kind")
	}
	e := &coderEntry{
		ID: wire.ID, Kind: wire.Kind,
		Bound: wire.Bound, CorpusBytes: wire.CorpusBytes,
	}
	for i, blob := range wire.Codes {
		code, err := huffman.UnmarshalCode(blob)
		if err != nil {
			return nil, fmt.Errorf("stored coder %s: code %d: %w", wire.ID, i, err)
		}
		e.codes = append(e.codes, code)
	}
	if wire.CodePack != nil {
		cp, err := codepack.UnmarshalCoder(wire.CodePack)
		if err != nil {
			return nil, fmt.Errorf("stored coder %s: %w", wire.ID, err)
		}
		e.codec = cp
	}
	if len(e.codes) == 0 && e.codec == nil {
		return nil, fmt.Errorf("stored coder %s: no codes and no codec", wire.ID)
	}
	return e, nil
}

// storeObserver folds the cache's store traffic into the server's
// metrics registry. Instruments are single-threaded by design, so every
// update goes under metricsMu like the handler-side metrics; calls
// arrive from whichever goroutine is building an artifact.
type storeObserver struct{ s *Server }

func (o storeObserver) StoreHit(string) { o.inc(o.s.inst.storeHits) }

func (o storeObserver) StoreMiss(string) { o.inc(o.s.inst.storeMisses) }

func (o storeObserver) StoreWrite(string) { o.inc(o.s.inst.storeWrites) }

func (o storeObserver) StoreCorrupt(string, error) { o.inc(o.s.inst.storeCorrupt) }

func (o storeObserver) inc(c interface{ Inc() }) {
	o.s.metricsMu.Lock()
	c.Inc()
	o.s.metricsMu.Unlock()
}

// coderFromStore restores a coder by its public id from the disk
// store, registering it on success. This is the fleet-sharing path: in
// a multi-node deployment whose members share a store (or inherit one
// from a dead peer), a node can be asked for a coder id some *other*
// node trained after this node's warm start. The id is the SHA-256 of
// the cache key, which is also the artifact's file name, so the lookup
// enumerates headers and matches on hash — one directory scan on the
// miss path only, never on the hot path — and restoreCoder then requires
// the stored coder's id to be that same hash.
func (s *Server) coderFromStore(id string) (*coderEntry, bool) {
	st := s.cache.Store()
	if st == nil {
		return nil, false
	}
	arts, err := st.List()
	if err != nil {
		return nil, false
	}
	for _, a := range arts {
		if a.Class == artifactClassCoder && sweep.HashBytes([]byte(a.Key)) == id {
			return s.restoreCoder(st, a.Key)
		}
	}
	return nil, false
}

// restoreCoder loads the stored coder under key, verifies its class and
// payload, and registers it in the cache and the registry — the step
// warm start and coderFromStore share. A coder's id is the hash of its
// key (normalizeTrain), so a payload whose id differs is misfiled: it is
// counted as corrupt like a damaged one, and never registered.
func (s *Server) restoreCoder(st sweep.Store, key string) (*coderEntry, bool) {
	obs := storeObserver{s}
	class, blob, err := st.Load(key)
	if err != nil || class != artifactClassCoder {
		obs.StoreCorrupt(key, err)
		return nil, false
	}
	entry, err := decodeCoderEntry(blob)
	if err != nil || entry.ID != sweep.HashBytes([]byte(key)) {
		obs.StoreCorrupt(key, err)
		return nil, false
	}
	obs.StoreHit(key)
	s.cache.Seed(key, entry)
	s.codersMu.Lock()
	s.coders[entry.ID] = entry
	s.codersMu.Unlock()
	return entry, true
}

// WarmStart loads every stored coder into the registry and the in-memory
// cache, the boot-time analogue of the paper's "the ROM is already
// written": after it returns, a request for any previously trained coder
// id resolves without a build, and POST /v1/coders of the same corpus is
// a pure cache hit. Damaged artifacts are skipped (and counted as
// corrupt); they will be rebuilt on first demand. Returns the number of
// coders registered.
//
// The pass runs under a store_load span so boot cost shows up in the
// same stage vocabulary as request cost.
func (s *Server) WarmStart(ctx context.Context) (int, error) {
	st := s.cache.Store()
	if st == nil {
		return 0, nil
	}
	sp := s.tracer.Start(StageStoreLoad)
	defer sp.End()
	arts, err := st.List()
	if err != nil {
		sp.SetError(err)
		return 0, err
	}
	loaded := 0
	for _, a := range arts {
		if a.Class != artifactClassCoder {
			continue
		}
		if err := ctx.Err(); err != nil {
			sp.SetError(err)
			return loaded, err
		}
		if _, ok := s.restoreCoder(st, a.Key); ok {
			loaded++
		}
	}
	sp.SetAttrInt("coders", int64(loaded))
	s.metricsMu.Lock()
	s.inst.storeWarmCoders.Set(float64(loaded))
	s.metricsMu.Unlock()
	return loaded, nil
}
