package server

import (
	"bytes"
	"context"
	"net/http"

	"ccrp/internal/core"
	"ccrp/internal/sweep"
	"ccrp/internal/tracing"
	"ccrp/internal/workload"
)

// compressRequest is the POST /v1/compress body. Exactly one text source
// must be set: an inline base64 image or a named corpus workload.
type compressRequest struct {
	CoderID     string   `json:"coder_id"`
	TextB64     b64Field `json:"text_b64,omitempty"`
	Workload    string   `json:"workload,omitempty"`
	WordAligned bool     `json:"word_aligned,omitempty"`
}

// lineInfo is one LAT-ready per-line record: the stored length in bytes
// and the raw-bypass flag, exactly what a Line Address Table encodes.
type lineInfo struct {
	Len int  `json:"len"`
	Raw bool `json:"raw,omitempty"`
}

// compressResponse reports the compressed image. ROMB64 is the CROM file
// (cmd/ccpack's on-disk format, byte-identical) for serializable coders;
// BlocksB64 plus Lines always suffice for /v1/decompress. The []byte
// fields hold raw bytes, which encoding/json writes as standard base64
// strings, as the requests' string fields carry them back.
type compressResponse struct {
	CoderID         string     `json:"coder_id"`
	OriginalBytes   int        `json:"original_bytes"`
	CompressedBytes int        `json:"compressed_bytes"`
	BlocksBytes     int        `json:"blocks_bytes"`
	LATBytes        int        `json:"lat_bytes"`
	Ratio           float64    `json:"ratio"`
	RawLines        int        `json:"raw_lines"`
	Lines           []lineInfo `json:"lines"`
	BlocksB64       []byte     `json:"blocks_b64"`
	ROMB64          []byte     `json:"rom_b64,omitempty"`
}

// resolveText produces the program text image of a request under a
// text_resolve span: the first touch of a named workload assembles and
// runs it to build the image (later touches hit the sync.Once cache),
// a cost that would otherwise be invisible root time.
func (s *Server) resolveText(ctx context.Context, textB64 b64Field, workloadName string) ([]byte, error) {
	sp := tracing.FromContext(ctx).Child(StageText)
	defer sp.End()
	text, err := s.resolveTextImage(textB64, workloadName)
	if err != nil {
		sp.SetError(err)
		return nil, err
	}
	sp.SetAttrInt("text_bytes", int64(len(text)))
	return text, nil
}

func (s *Server) resolveTextImage(textB64 b64Field, workloadName string) ([]byte, error) {
	switch {
	case len(textB64) != 0 && workloadName != "":
		return nil, errBadRequest("text_b64 and workload are mutually exclusive")
	case len(textB64) != 0:
		text, err := textB64.decode()
		if err != nil {
			return nil, errBadRequest("text_b64: invalid base64: %v", err)
		}
		if len(text) == 0 {
			return nil, errBadRequest("text_b64 decodes to an empty image")
		}
		return text, nil
	case workloadName != "":
		w, ok := workload.ByName(workloadName)
		if !ok {
			return nil, Errf(http.StatusNotFound, CodeNotFound,
				"unknown workload %q (have %v)", workloadName, workload.Names())
		}
		text, err := w.Text()
		if err != nil {
			return nil, errUnprocessable("workload %q failed to build: %v", workloadName, err)
		}
		return text, nil
	default:
		return nil, errBadRequest("one of text_b64 or workload is required")
	}
}

// buildROM compresses text under the coder, under a compress span. A
// named workload's ROM is memoized in s.roms by (coder, alignment,
// workload), a key set bounded by the corpus times the held coders:
// concurrent identical requests share one build, and
// simulate reuses compress's ROMs. Built ROMs are immutable, which is
// what makes the sharing sound. Client text (workloadName "") is
// compressed for its request alone and kept nowhere, so memory does not
// grow with compress traffic.
func (s *Server) buildROM(ctx context.Context, entry *coderEntry, text []byte, workloadName string, wordAligned bool) (*core.ROM, error) {
	sp := tracing.FromContext(ctx).Child(StageCompress)
	sp.SetAttrInt("text_bytes", int64(len(text)))
	defer sp.End()
	build := func() (*core.ROM, error) {
		sp.SetAttrInt("built", 1) // not a cache hit: this request paid the build
		rom, err := core.BuildROM(text, entry.romOptions(wordAligned))
		if err != nil {
			return nil, errUnprocessable("compression failed: %v", err)
		}
		if err := rom.Verify(); err != nil {
			return nil, Errf(http.StatusInternalServerError, CodeInternal,
				"compressed image fails verification: %v", err)
		}
		return rom, nil
	}
	var rom *core.ROM
	var err error
	if workloadName != "" {
		rom, err = sweep.Get(s.roms, sweep.Key(entry.ID, wordAligned, workloadName), build)
	} else {
		rom, err = build()
	}
	if err != nil {
		sp.SetError(err)
	}
	return rom, err
}

func (s *Server) handleCompress(w http.ResponseWriter, r *http.Request) error {
	var req compressRequest
	if err := decodeRequest(w, r, &req); err != nil {
		return err
	}
	if req.CoderID == "" {
		return errBadRequest("missing coder_id (train one with POST /v1/coders)")
	}
	entry, err := s.resolveCoder(r.Context(), req.CoderID)
	if err != nil {
		return err
	}
	text, err := s.resolveText(r.Context(), req.TextB64, req.Workload)
	if err != nil {
		return err
	}
	rom, err := s.buildROM(r.Context(), entry, text, req.Workload, req.WordAligned)
	if err != nil {
		return err
	}

	// The encode span opens before response construction: serializing
	// the CROM image and base64-packing it with the blocks dominate the
	// write path for large programs, and unattributed time here would
	// show up as a coverage gap in ccrp-spans.
	sp := tracing.FromContext(r.Context()).Child(StageEncode)
	defer sp.End()
	resp, err := compressResult(entry, req.CoderID, rom)
	if err != nil {
		sp.SetError(err)
		return err
	}

	s.metricsMu.Lock()
	s.inst.bytesIn.Add(uint64(len(text)))
	s.metricsMu.Unlock()

	WriteJSON(w, http.StatusOK, resp)
	return nil
}

// compressResult packs a built ROM into the wire shape, including the
// block image and (for serializable coders) the CROM file. BlocksB64 is
// the ROM's own block region, not a copy: a built ROM is immutable.
func compressResult(entry *coderEntry, coderID string, rom *core.ROM) (*compressResponse, error) {
	resp := &compressResponse{
		CoderID:         coderID,
		OriginalBytes:   rom.OriginalSize,
		CompressedBytes: rom.CompressedSize(),
		BlocksBytes:     rom.BlocksSize(),
		LATBytes:        rom.TableSize(),
		Ratio:           rom.Ratio(),
		RawLines:        rom.RawLines(),
		Lines:           make([]lineInfo, len(rom.Lines)),
		BlocksB64:       rom.Blocks,
	}
	for i := range rom.Lines {
		resp.Lines[i] = lineInfo{Len: len(rom.Stored(i)), Raw: rom.Raw(i)}
	}
	if entry.serializable() {
		var buf bytes.Buffer
		if err := rom.WriteFile(&buf); err != nil {
			return nil, err
		}
		resp.ROMB64 = buf.Bytes()
	}
	return resp, nil
}

// decompressRequest is the POST /v1/decompress body. Either a serialized
// CROM image (self-describing: code tables travel in the file) or the
// coder id plus the packed blocks and per-line records from a compress
// response.
type decompressRequest struct {
	ROMB64    b64Field   `json:"rom_b64,omitempty"`
	CoderID   string     `json:"coder_id,omitempty"`
	BlocksB64 b64Field   `json:"blocks_b64,omitempty"`
	Lines     []lineInfo `json:"lines,omitempty"`
}

// decompressResponse carries the recovered text as raw bytes; the wire
// holds them as a base64 string, as in compressResponse.
type decompressResponse struct {
	TextB64       []byte `json:"text_b64"`
	OriginalBytes int    `json:"original_bytes"`
}

// decompressOne recovers the text image of one decompress payload —
// either a self-describing CROM file or coder_id+blocks+lines — the unit
// shared by the single and :batch endpoints.
func (s *Server) decompressOne(ctx context.Context, req *decompressRequest) ([]byte, error) {
	switch {
	case len(req.ROMB64) != 0:
		sp := tracing.FromContext(ctx).Child(StageDecompress)
		defer sp.End()
		blob, err := req.ROMB64.decode()
		if err != nil {
			return nil, errBadRequest("rom_b64: invalid base64: %v", err)
		}
		rom, err := core.ReadROMFile(bytes.NewReader(blob))
		if err != nil {
			sp.SetError(err)
			return nil, errUnprocessable("malformed ROM image: %v", err)
		}
		text := rom.Text()
		sp.SetAttrInt("text_bytes", int64(len(text)))
		return text, nil
	case req.CoderID != "":
		return s.decompressLines(ctx, req)
	default:
		return nil, errBadRequest("one of rom_b64 or coder_id+blocks_b64+lines is required")
	}
}

func (s *Server) handleDecompress(w http.ResponseWriter, r *http.Request) error {
	var req decompressRequest
	if err := decodeRequest(w, r, &req); err != nil {
		return err
	}
	text, err := s.decompressOne(r.Context(), &req)
	if err != nil {
		return err
	}

	s.metricsMu.Lock()
	s.inst.bytesOut.Add(uint64(len(text)))
	s.metricsMu.Unlock()

	traceJSON(w, r, decompressResponse{TextB64: text, OriginalBytes: len(text)})
	return nil
}

// decompressLines expands a blocks+lines payload under a registered
// coder, the path for codec-based (non-serializable) images. The line
// records are checked against what a Line Address Table can hold before
// any decode, then each line expands by itself into one preallocated
// text image, as the paper's refill engine expands each block from its
// LAT entry. The context is checked before every line, so a hostile
// line list cannot outlive the route deadline.
func (s *Server) decompressLines(ctx context.Context, req *decompressRequest) ([]byte, error) {
	entry, err := s.resolveCoder(ctx, req.CoderID)
	if err != nil {
		return nil, err
	}
	sp := tracing.FromContext(ctx).Child(StageDecompress)
	defer sp.End()
	blocks, err := req.BlocksB64.decode()
	if err != nil {
		return nil, errBadRequest("blocks_b64: invalid base64: %v", err)
	}
	if len(req.Lines) == 0 {
		return nil, errBadRequest("lines is required with coder_id")
	}
	if err := checkLines(req.Lines, len(blocks)); err != nil {
		return nil, err
	}

	out := make([]byte, len(req.Lines)*core.LineSize)
	off := 0
	for i, l := range req.Lines {
		if ctx.Err() != nil {
			err := Errf(http.StatusRequestTimeout, CodeDeadlineExceeded,
				"decompress deadline exceeded at line %d of %d", i, len(req.Lines))
			sp.SetError(err)
			return nil, err
		}
		stored := blocks[off : off+l.Len]
		off += l.Len
		dst := out[i*core.LineSize : (i+1)*core.LineSize]
		if l.Raw {
			copy(dst, stored)
		} else if err := entry.codec.DecodeLineInto(dst, stored); err != nil {
			err := errUnprocessable("line %d: %v", i, err)
			sp.SetError(err)
			return nil, err
		}
	}
	sp.SetAttrInt("lines", int64(len(req.Lines)))
	return out, nil
}

// checkLines enforces the LAT's rules on per-line records: a raw line is
// stored as exactly LineSize bytes, a compressed one as 1 to LineSize-1
// (a LAT length field holds 1–31; 0 marks raw), and the stored lengths
// add up to the block region exactly.
func checkLines(lines []lineInfo, blockBytes int) error {
	off := 0
	for i, l := range lines {
		switch {
		case l.Raw && l.Len != core.LineSize:
			return errUnprocessable("line %d: raw line stores %d bytes, want %d", i, l.Len, core.LineSize)
		case !l.Raw && (l.Len < 1 || l.Len >= core.LineSize):
			return errUnprocessable("line %d: compressed line stores %d bytes, want 1 to %d", i, l.Len, core.LineSize-1)
		case off+l.Len > blockBytes:
			return errUnprocessable("line %d: stored length %d overruns the block region", i, l.Len)
		}
		off += l.Len
	}
	if off != blockBytes {
		return errUnprocessable("line %d: %d bytes of blocks_b64 follow the last line", len(lines)-1, blockBytes-off)
	}
	return nil
}
