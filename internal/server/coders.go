package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"

	"ccrp/internal/codepack"
	"ccrp/internal/core"
	"ccrp/internal/experiments"
	"ccrp/internal/huffman"
	"ccrp/internal/sweep"
	"ccrp/internal/tracing"
	"ccrp/internal/workload"
)

// Coder kinds accepted by POST /v1/coders.
const (
	KindHuffman     = "huffman"     // traditional (unbounded) byte-Huffman code
	KindBounded     = "bounded"     // length-limited byte-Huffman code (package-merge)
	KindPreselected = "preselected" // the paper's corpus-trained 16-bit-bounded code
	KindCodePack    = "codepack"    // halfword-dictionary coder (IBM CodePack lineage)
)

// coderEntry is one trained coder held by the registry. Entries are
// immutable after construction, so concurrent requests share them freely.
type coderEntry struct {
	ID          string
	Kind        string
	Bound       int
	CorpusBytes int
	// codec codes every line of the coder's ROMs: a core.HuffmanCodec
	// for the byte-Huffman kinds, a *codepack.Coder for codepack.
	codec core.LineCodec
}

// coderInfo is the wire shape describing a coder.
type coderInfo struct {
	ID          string `json:"id"`
	Kind        string `json:"kind"`
	Bound       int    `json:"bound,omitempty"`
	CorpusBytes int    `json:"corpus_bytes"`
	MaxCodeLen  int    `json:"max_code_len,omitempty"` // longest codeword, bits
	TableBits   int    `json:"table_bits,omitempty"`   // serialized code-table cost
	DictBytes   int    `json:"dict_bytes,omitempty"`   // codepack dictionary cost
	Cached      bool   `json:"cached"`                 // true when the coder was held before this request
}

func (e *coderEntry) info(cached bool) coderInfo {
	info := coderInfo{
		ID: e.ID, Kind: e.Kind, Bound: e.Bound,
		CorpusBytes: e.CorpusBytes, Cached: cached,
	}
	switch c := e.codec.(type) {
	case core.HuffmanCodec:
		info.MaxCodeLen = c.Code().MaxLen()
		info.TableBits = c.Code().TableBits()
	case *codepack.Coder:
		info.DictBytes = c.DictionaryBytes()
	}
	return info
}

// trainRequest is the POST /v1/coders body. The corpus is the union of
// inline base64 images and named corpus workloads; "preselected" needs
// neither (its corpus is fixed by the paper).
type trainRequest struct {
	Kind      string     `json:"kind"`
	Bound     int        `json:"bound,omitempty"`      // bounded only; default 16
	CorpusB64 []b64Field `json:"corpus_b64,omitempty"` // raw text images, base64
	Workloads []string   `json:"workloads,omitempty"`  // corpus programs by name
}

// gatherCorpus resolves the training corpus of a request. Each image
// may appear once: a workload named twice, or an image whose content
// repeats another's, inline or named, is a bad request, since the
// repeat adds cost and no training data. Names are checked before any
// text is resolved.
func gatherCorpus(req *trainRequest) ([][]byte, error) {
	named := make(map[string]bool, len(req.Workloads))
	for i, name := range req.Workloads {
		if named[name] {
			return nil, errBadRequest("workloads[%d]: workload %q is named twice", i, name)
		}
		named[name] = true
	}
	var corpus [][]byte
	seen := make(map[string]string, len(req.CorpusB64)+len(req.Workloads)) // content hash -> where
	add := func(img []byte, where string) error {
		h := sweep.HashBytes(img)
		if first, dup := seen[h]; dup {
			return errBadRequest("%s repeats the image of %s", where, first)
		}
		seen[h] = where
		corpus = append(corpus, img)
		return nil
	}
	for i, enc := range req.CorpusB64 {
		img, err := enc.decode()
		if err != nil {
			return nil, errBadRequest("corpus_b64[%d]: invalid base64: %v", i, err)
		}
		if err := add(img, fmt.Sprintf("corpus_b64[%d]", i)); err != nil {
			return nil, err
		}
	}
	for _, name := range req.Workloads {
		w, ok := workload.ByName(name)
		if !ok {
			return nil, Errf(http.StatusNotFound, CodeNotFound,
				"unknown workload %q (have %v)", name, workload.Names())
		}
		text, err := w.Text()
		if err != nil {
			return nil, errUnprocessable("workload %q failed to build: %v", name, err)
		}
		if err := add(text, fmt.Sprintf("workload %q", name)); err != nil {
			return nil, err
		}
	}
	return corpus, nil
}

// coderKey derives the content-addressed key of a train request, whose
// hash is the coder id: kind, bound, and the corpus content. Identical
// corpora train once no matter how they were supplied.
func coderKey(kind string, bound int, corpus [][]byte) string {
	parts := []any{"coder", kind, bound}
	hashes := make([]string, len(corpus))
	for i, img := range corpus {
		hashes[i] = sweep.HashBytes(img)
	}
	// Corpus order does not change the trained histograms' union, but it
	// does change multi-image hashing; sort so semantically identical
	// requests share a key.
	sort.Strings(hashes)
	for _, h := range hashes {
		parts = append(parts, h)
	}
	return sweep.Key(parts...)
}

// buildCoder trains the coder for a validated request.
func buildCoder(id, kind string, bound int, corpus [][]byte) (*coderEntry, error) {
	total := 0
	for _, img := range corpus {
		total += len(img)
	}
	e := &coderEntry{ID: id, Kind: kind, Bound: bound, CorpusBytes: total}
	switch kind {
	case KindPreselected:
		code, err := experiments.PreselectedCode()
		if err != nil {
			return nil, err
		}
		e.codec = core.NewHuffmanCodec(code)
	case KindHuffman, KindBounded:
		h := huffman.HistogramOf(corpus...)
		// Smooth so every byte value stays encodable: a service coder
		// must compress images beyond its training corpus without
		// falling back to raw storage on unseen bytes.
		h = h.Smooth()
		var code *huffman.Code
		var err error
		if kind == KindBounded {
			code, err = huffman.BuildBounded(h, bound)
		} else {
			code, err = huffman.BuildTraditional(h)
		}
		if err != nil {
			return nil, errUnprocessable("training %s code: %v", kind, err)
		}
		e.codec = core.NewHuffmanCodec(code)
	case KindCodePack:
		coder, err := codepack.Train(corpus...)
		if err != nil {
			return nil, errUnprocessable("training codepack coder: %v", err)
		}
		e.codec = coder
	default:
		return nil, errBadRequest("unknown coder kind %q (have %s, %s, %s, %s)",
			kind, KindHuffman, KindBounded, KindPreselected, KindCodePack)
	}
	return e, nil
}

// normalizeTrain validates a train request, resolves its corpus, and
// derives the content-addressed key and public coder id. Shared
// by the train handler and the router's route-key derivation, so the
// gateway and the backend agree byte-for-byte on which node owns the
// coder a train request will produce.
func normalizeTrain(req *trainRequest) (key, id string, corpus [][]byte, err error) {
	if req.Kind == "" {
		return "", "", nil, errBadRequest("missing coder kind")
	}
	if req.Bound == 0 {
		req.Bound = experiments.HuffmanBound
	}
	if req.Bound < 1 || req.Bound > 64 {
		return "", "", nil, errBadRequest("bound %d outside [1, 64]", req.Bound)
	}
	if req.Kind != KindBounded {
		req.Bound = 0 // bound is a bounded-only knob; normalize the key
	}
	corpus, err = gatherCorpus(req)
	if err != nil {
		return "", "", nil, err
	}
	if len(corpus) == 0 && req.Kind != KindPreselected {
		return "", "", nil, errBadRequest("training a %q coder requires corpus_b64 or workloads", req.Kind)
	}
	key = coderKey(req.Kind, req.Bound, corpus)
	return key, sweep.HashBytes([]byte(key)), corpus, nil
}

func (s *Server) handleTrainCoder(w http.ResponseWriter, r *http.Request) error {
	var req trainRequest
	if err := decodeRequest(w, r, &req); err != nil {
		return err
	}
	key, id, corpus, err := normalizeTrain(&req)
	if err != nil {
		return err
	}

	_, cached := sweep.Peek[*coderEntry](s.coders, id)

	sp := tracing.FromContext(r.Context()).Child(StageCoderTrain)
	sp.SetAttr("kind", req.Kind)
	sp.SetAttr("coder", id)
	entry, err := s.trainCoderCached(sp, key, id, req.Kind, req.Bound, corpus)
	if err != nil {
		sp.SetError(err)
		sp.End()
		return err
	}
	sp.End()

	traceJSON(w, r, entry.info(cached))
	return nil
}

// trainCoderCached resolves (or builds) a trained coder: the registry
// first, then the disk store, then a real build that is written through.
// A failed write loses only durability, never the coder; a failed build
// is answered and not kept. sp may be the nil span.
func (s *Server) trainCoderCached(sp *tracing.Span, key, id, kind string, bound int, corpus [][]byte) (*coderEntry, error) {
	return sweep.Get(s.coders, id, func() (*coderEntry, error) {
		stored, err := s.fromStore(id)
		if err == nil {
			return stored, nil
		}
		if s.cfg.Store != nil && errors.Is(err, errNotStored) {
			s.count(s.inst.storeMisses)
		}
		s.count(s.inst.builds)
		sp.SetAttrInt("built", 1) // this request ran the build, not a cache/store hit
		built, err := buildCoder(id, kind, bound, corpus)
		if err != nil {
			return nil, err
		}
		if s.cfg.Store != nil && s.cfg.Store.save(key, built) == nil {
			s.count(s.inst.storeWrites)
		}
		return built, nil
	})
}

func (s *Server) handleGetCoder(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	entry, err := s.resolveCoder(r.Context(), id)
	if err != nil {
		return err
	}
	traceJSON(w, r, entry.info(true))
	return nil
}

// resolveCoder returns coder id under a coder_resolve span, the
// instrumented path the request handlers share. A registry miss reads
// the disk store inside the registry's single flight, so concurrent
// first uses read a stored coder once, and a lookup that meets the id's
// training in flight waits for it. A restarted node thus reads each
// stored coder once, on first use, and when fleet members share a
// store, a coder trained through one node resolves on any peer — which
// is what lets a router fail a coder's traffic over to the ring
// successor without the client ever seeing "unknown coder". The read
// opens at most the one file the id names, and a malformed id opens
// none.
func (s *Server) resolveCoder(ctx context.Context, id string) (*coderEntry, error) {
	sp := tracing.FromContext(ctx).Child(StageCoderGet)
	defer sp.End()
	entry, err := sweep.Get(s.coders, id, func() (*coderEntry, error) {
		stored, err := s.fromStore(id)
		if err != nil {
			return nil, Errf(http.StatusNotFound, CodeNotFound,
				"unknown coder id %q (train it with POST /v1/coders)", id)
		}
		sp.SetAttrInt("store_restored", 1)
		return stored, nil
	})
	if err != nil {
		sp.SetError(err)
	}
	return entry, err
}

// romOptions builds the core compression options for a coder.
func (e *coderEntry) romOptions(wordAligned bool) core.Options {
	return core.Options{Codec: e.codec, WordAligned: wordAligned}
}

// serializable reports whether the coder's ROMs can be written as CROM
// files: only a Huffman code's tables travel in the ROM format.
func (e *coderEntry) serializable() bool {
	_, ok := e.codec.(core.HuffmanCodec)
	return ok
}
