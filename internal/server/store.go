// Persistence: the durable-artifact side of ccrpd. In the paper the
// code is trained once, offline, and survives every power cycle. This
// file gives the daemon's trained coders the same property: written
// through to a Store, and verified on the way back in, so a restarted
// daemon serves its whole coder catalogue without a single retrain. A
// stored coder is read on first use, once, as the paper's CLB is filled
// on a miss from the LAT. ROM images do not persist: a named workload's
// ROM rebuilds from its coder in milliseconds on first use, and client
// text is compressed per request (Server.buildROM).
package server

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"ccrp/internal/codepack"
	"ccrp/internal/core"
	"ccrp/internal/huffman"
	"ccrp/internal/metrics"
	"ccrp/internal/sweep"
)

// artifactClassCoder is the class every coder file's header records.
// Older daemons also stored ROM images (class "rom") under the same
// naming; those files are neither listed nor loaded.
const artifactClassCoder = "coder"

// coderEntryWire is the gob shape of a persisted coderEntry. The
// in-memory entry holds a live core.LineCodec; on disk its Huffman code
// or CodePack coder travels in its own binary form and is rebuilt on
// decode, so a restored coder is byte-identical in behavior.
type coderEntryWire struct {
	ID          string
	Kind        string
	Bound       int
	CorpusBytes int
	Codes       [][]byte // huffman.Code.MarshalBinary: one, for the Huffman kinds
	CodePack    []byte   // codepack.Coder.MarshalBinary, when Kind == codepack
}

func encodeCoderEntry(e *coderEntry) ([]byte, error) {
	wire := coderEntryWire{
		ID: e.ID, Kind: e.Kind, Bound: e.Bound, CorpusBytes: e.CorpusBytes,
	}
	var err error
	switch c := e.codec.(type) {
	case core.HuffmanCodec:
		wire.Codes = make([][]byte, 1)
		wire.Codes[0], err = c.Code().MarshalBinary()
	case *codepack.Coder:
		wire.CodePack, err = c.MarshalBinary()
	default:
		err = fmt.Errorf("codec %T is not persistable", e.codec)
	}
	if err != nil {
		return nil, fmt.Errorf("coder %s: %w", e.ID, err)
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
	switch {
	case len(wire.Codes) == 1 && wire.CodePack == nil:
		code, err := huffman.UnmarshalCode(wire.Codes[0])
		if err != nil {
			return nil, fmt.Errorf("stored coder %s: code: %w", wire.ID, err)
		}
		e.codec = core.NewHuffmanCodec(code)
	case len(wire.Codes) == 0 && wire.CodePack != nil:
		cp, err := codepack.UnmarshalCoder(wire.CodePack)
		if err != nil {
			return nil, fmt.Errorf("stored coder %s: %w", wire.ID, err)
		}
		e.codec = cp
	default:
		return nil, fmt.Errorf("stored coder %s: %d codes and %d CodePack bytes, want one code or one CodePack coder",
			wire.ID, len(wire.Codes), len(wire.CodePack))
	}
	return e, nil
}

// Store keeps trained coders on disk, one file per coder id: the coder
// with id I lives in DIR/I.art. An id is the SHA-256 of the coder's
// cache key, so the file name is the public id, and resolving an id
// costs one open.
//
// A file is one JSON header line (format version, cache key, class,
// payload length, payload SHA-256) followed by the gob payload. A load
// trusts the bytes only after every check passes: the length and hash
// match, the class is "coder", the key hashes to the file name, and the
// decoded coder carries that same id. Anything else is corrupt, never
// served. Saves write a temporary file and rename it into place, so a
// reader sees the old coder or the new one, never a prefix.
type Store struct {
	dir string
}

// storeExt names coder files; anything else in the directory is ignored.
const storeExt = ".art"

// storeVersion is the only header format version.
const storeVersion = 1

// storeHeader is the JSON first line of every coder file.
type storeHeader struct {
	V      int    `json:"v"`
	Key    string `json:"key"`
	Class  string `json:"class"`
	Len    int    `json:"len"`
	SHA256 string `json:"sha256"`
}

// errNotStored reports an id with no coder file. Ids that are not 64
// lowercase hex digits get it without touching the file system.
var errNotStored = errors.New("coder not in store")

// OpenStore opens the coder store in dir, creating the directory if
// needed. It reads one name from the directory, so a directory that
// cannot be listed fails here, at boot, and not on the first request
// that reads a coder.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory name")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	f, err := os.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	if _, err := f.Readdirnames(1); err != nil && err != io.EOF {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// validID reports whether id is 64 lowercase hex digits, the only form
// sweep.HashBytes produces. Only such an id becomes a file name.
func validID(id string) bool {
	if len(id) != 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (st *Store) path(id string) string { return filepath.Join(st.dir, id+storeExt) }

// load reads, verifies and decodes the coder stored under id. It returns
// errNotStored when there is no such file, and any other error for a
// file that fails a check or cannot be read.
func (st *Store) load(id string) (*coderEntry, error) {
	if !validID(id) {
		return nil, errNotStored
	}
	raw, err := os.ReadFile(st.path(id))
	if errors.Is(err, os.ErrNotExist) {
		return nil, errNotStored
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	line, payload, ok := bytes.Cut(raw, []byte{'\n'})
	if !ok {
		return nil, fmt.Errorf("store: %s: missing header line", id)
	}
	hdr, err := parseStoreHeader(id, line)
	if err != nil {
		return nil, err
	}
	if len(payload) != hdr.Len {
		return nil, fmt.Errorf("store: %s: payload is %d bytes, header says %d", id, len(payload), hdr.Len)
	}
	if sweep.HashBytes(payload) != hdr.SHA256 {
		return nil, fmt.Errorf("store: %s: payload hash mismatch", id)
	}
	if hdr.Class != artifactClassCoder {
		return nil, fmt.Errorf("store: %s: class %q, want %q", id, hdr.Class, artifactClassCoder)
	}
	entry, err := decodeCoderEntry(payload)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", id, err)
	}
	if entry.ID != id {
		return nil, fmt.Errorf("store: %s: payload holds coder %s", id, entry.ID)
	}
	return entry, nil
}

// parseStoreHeader parses the header line of the file named id and
// checks its version and that its key hashes to id.
func parseStoreHeader(id string, line []byte) (storeHeader, error) {
	var hdr storeHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		return hdr, fmt.Errorf("store: %s: unparseable header: %v", id, err)
	}
	if hdr.V != storeVersion {
		return hdr, fmt.Errorf("store: %s: unsupported version %d", id, hdr.V)
	}
	if sweep.HashBytes([]byte(hdr.Key)) != id {
		return hdr, fmt.Errorf("store: %s: header key belongs to another file", id)
	}
	return hdr, nil
}

// save writes entry, trained under the cache key key, to the file its
// id names.
func (st *Store) save(key string, entry *coderEntry) error {
	blob, err := encodeCoderEntry(entry)
	if err != nil {
		return err
	}
	hdr, err := json.Marshal(storeHeader{
		V: storeVersion, Key: key, Class: artifactClassCoder,
		Len: len(blob), SHA256: sweep.HashBytes(blob),
	})
	if err != nil {
		return fmt.Errorf("store write: %w", err)
	}
	final := st.path(sweep.HashBytes([]byte(key)))
	tmp, err := os.CreateTemp(st.dir, filepath.Base(final)+".tmp*")
	if err != nil {
		return fmt.Errorf("store write: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(append(append(hdr, '\n'), blob...)); err != nil {
		tmp.Close()
		return fmt.Errorf("store write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store write: %w", err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return fmt.Errorf("store write: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return fmt.Errorf("store write: %w", err)
	}
	return nil
}

// list describes every coder file from its header line alone; payloads
// are verified by load. A file whose name is not an id, whose header
// does not parse or belongs to another name, or whose class is not
// "coder" is skipped.
func (st *Store) list() ([]artifactInfo, error) {
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var arts []artifactInfo
	for _, ent := range ents {
		id, ok := strings.CutSuffix(ent.Name(), storeExt)
		if !ok || !validID(id) || ent.IsDir() {
			continue
		}
		hdr, err := st.header(id)
		if err != nil || hdr.Class != artifactClassCoder {
			continue
		}
		art := artifactInfo{ID: id, Kind: hdr.Class, Size: hdr.Len}
		if info, err := ent.Info(); err == nil {
			art.MTime = info.ModTime()
		}
		arts = append(arts, art)
	}
	return arts, nil
}

// header reads and parses the first line of the file named id.
func (st *Store) header(id string) (storeHeader, error) {
	f, err := os.Open(st.path(id))
	if err != nil {
		return storeHeader{}, err
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadBytes('\n')
	if err != nil {
		return storeHeader{}, fmt.Errorf("store: %s: missing header line", id)
	}
	return parseStoreHeader(id, line[:len(line)-1])
}

// fromStore reads the coder id from the store, the one way from disk to
// memory, which training and resolveCoder share. It counts a store hit,
// or a corrupt file; errNotStored (also the answer without a store)
// counts neither.
func (s *Server) fromStore(id string) (*coderEntry, error) {
	if s.cfg.Store == nil {
		return nil, errNotStored
	}
	entry, err := s.cfg.Store.load(id)
	switch {
	case errors.Is(err, errNotStored):
	case err != nil:
		s.count(s.inst.storeCorrupt)
	default:
		s.count(s.inst.storeHits)
	}
	return entry, err
}

// count increments one registry counter; instruments are
// single-threaded by design, so every update goes under metricsMu.
func (s *Server) count(c *metrics.Counter) {
	s.metricsMu.Lock()
	c.Inc()
	s.metricsMu.Unlock()
}
