// Package codepack implements a CodePack-style instruction coder — the
// "more sophisticated encoding technique" direction the paper's §5
// proposes, and the scheme its line of work grew into (IBM CodePack for
// PowerPC, 1998).
//
// Where the paper's base scheme Huffman-codes instruction *bytes*,
// CodePack splits each 32-bit instruction into its upper and lower
// 16-bit halves and codes each half against its own dictionary: the most
// frequent halfwords (opcodes/registers in the upper half, small
// immediates in the lower half) get short indices, and anything else
// escapes to a raw 16-bit literal. The index streams are entropy-coded
// with the same bounded Huffman machinery as the base scheme, so the
// decoder cost argument (§3.4) carries over.
//
// The coder plugs into the same block-bounded pipeline as a
// core.LineCodec: AppendLine and DecodeLine work on 32-byte cache lines,
// and BitLengths gives the per-output-byte bit counts that size each
// line and drive the refill engine's streaming model.
package codepack

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"

	"ccrp/internal/bitio"
	"ccrp/internal/huffman"
	"ccrp/internal/lat"
)

// tableSize is the dictionary size per half; index 255 is the escape.
const tableSize = 255

const escape = tableSize // symbol meaning "16-bit literal follows"

// ErrBadLine is returned when decoding a malformed compressed line.
var ErrBadLine = errors.New("codepack: malformed compressed line")

// Coder holds the two dictionaries and their entropy codes.
type Coder struct {
	upper halfCoder // bits 31..16 of each instruction
	lower halfCoder // bits 15..0
}

type halfCoder struct {
	table []uint16        // index -> halfword
	index *[1 << 16]uint8 // halfword -> index+1, 0 when not in table
	code  *huffman.Code   // over the 256-symbol index alphabet
}

// newHalfCoder indexes a dictionary of at most tableSize distinct
// halfwords, so that sizing and encoding a halfword is one array load.
func newHalfCoder(table []uint16, code *huffman.Code) (halfCoder, error) {
	h := halfCoder{table: table, index: new([1 << 16]uint8), code: code}
	for i, hw := range table {
		if prev, ok := h.lookup(hw); ok {
			return halfCoder{}, fmt.Errorf("halfword %#x at indices %d and %d", hw, prev, i)
		}
		h.index[hw] = uint8(i + 1)
	}
	return h, nil
}

// lookup returns hw's dictionary index, if it has one.
func (h *halfCoder) lookup(hw uint16) (uint8, bool) {
	i := h.index[hw]
	return i - 1, i != 0
}

// Train builds a coder from a corpus of instruction text images (the
// CodePack analogue of the paper's preselected code: fixed at
// development time, hardwired in the decoder).
func Train(images ...[]byte) (*Coder, error) {
	upperCounts := map[uint16]uint64{}
	lowerCounts := map[uint16]uint64{}
	for _, text := range images {
		for off := 0; off+4 <= len(text); off += 4 {
			w := binary.LittleEndian.Uint32(text[off:])
			upperCounts[uint16(w>>16)]++
			lowerCounts[uint16(w)]++
		}
	}
	if len(upperCounts) == 0 {
		return nil, errors.New("codepack: empty training corpus")
	}
	c := &Coder{}
	var err error
	if c.upper, err = trainHalf(upperCounts); err != nil {
		return nil, err
	}
	if c.lower, err = trainHalf(lowerCounts); err != nil {
		return nil, err
	}
	return c, nil
}

func trainHalf(counts map[uint16]uint64) (halfCoder, error) {
	type entry struct {
		hw uint16
		n  uint64
	}
	entries := make([]entry, 0, len(counts))
	for hw, n := range counts {
		entries = append(entries, entry{hw, n})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].n != entries[j].n {
			return entries[i].n > entries[j].n
		}
		return entries[i].hw < entries[j].hw
	})
	dict := min(len(entries), tableSize)
	var hist huffman.Histogram
	hist[escape] = 1 // the escape must always have a codeword
	for _, e := range entries[dict:] {
		hist[escape] += e.n // halfwords outside the dictionary escape
	}
	table := make([]uint16, dict)
	for i, e := range entries[:dict] {
		table[i] = e.hw
		// Smooth the dictionary symbols so every index decodes even if
		// its training count was tiny.
		hist[i] = e.n + 1
	}
	code, err := huffman.BuildBounded(&hist, 16)
	if err != nil {
		return halfCoder{}, err
	}
	return newHalfCoder(table, code)
}

// encodeHalf appends one halfword's codeword (and escape literal).
func (h *halfCoder) encodeHalf(w *bitio.Writer, hw uint16) error {
	if idx, ok := h.lookup(hw); ok {
		bits, n := h.code.Codeword(idx)
		if n == 0 {
			return fmt.Errorf("codepack: dictionary index %d lost its codeword", idx)
		}
		w.WriteBits(bits, uint(n))
		return nil
	}
	bits, n := h.code.Codeword(escape)
	if n == 0 {
		return errors.New("codepack: escape symbol has no codeword")
	}
	w.WriteBits(bits, uint(n))
	w.WriteBits(uint64(hw), 16)
	return nil
}

// halfBits returns the encoded size of one halfword in bits.
func (h *halfCoder) halfBits(hw uint16) int {
	if idx, ok := h.lookup(hw); ok {
		return h.code.Len(idx)
	}
	return h.code.Len(byte(escape)) + 16
}

// decodeHalf reads one halfword. The codeword lookup goes through the
// multi-symbol table-driven decoder; interleaving with the raw 16-bit
// escape literals is safe because MultiDecoder.DecodeSymbol consumes
// exactly one codeword and leaves the reader at the canonical bit
// position.
func (h *halfCoder) decodeHalf(r *bitio.Reader) (uint16, error) {
	sym, err := h.code.Multi().DecodeSymbol(r)
	if err != nil {
		return 0, err
	}
	if int(sym) == escape {
		v, err := r.ReadBits(16)
		if err != nil {
			return 0, err
		}
		return uint16(v), nil
	}
	if int(sym) >= len(h.table) {
		return 0, fmt.Errorf("%w: index %d beyond dictionary", ErrBadLine, sym)
	}
	return h.table[sym], nil
}

// AppendLine compresses one 32-byte instruction line (8 words) and
// appends it to dst (core.LineCodec).
func (c *Coder) AppendLine(dst, line []byte) ([]byte, error) {
	if len(line)%4 != 0 {
		return dst, fmt.Errorf("codepack: line length %d not word aligned", len(line))
	}
	w := bitio.NewWriter(dst)
	for off := 0; off < len(line); off += 4 {
		word := binary.LittleEndian.Uint32(line[off:])
		if err := c.upper.encodeHalf(w, uint16(word>>16)); err != nil {
			return dst, err
		}
		if err := c.lower.encodeHalf(w, uint16(word)); err != nil {
			return dst, err
		}
	}
	return w.Bytes(), nil
}

// DecodeLine expands a compressed line back to n bytes (n word aligned).
func (c *Coder) DecodeLine(comp []byte, n int) ([]byte, error) {
	if n < 0 || n%4 != 0 {
		return nil, fmt.Errorf("%w: output length %d not a non-negative word multiple", ErrBadLine, n)
	}
	out := make([]byte, n)
	if err := c.DecodeLineInto(out, comp); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeLineInto expands a compressed line into dst (core.LineCodec),
// the zero-allocation form of DecodeLine: the bit reader lives on the
// stack and the caller owns the output buffer.
func (c *Coder) DecodeLineInto(dst, comp []byte) error {
	if len(dst)%4 != 0 {
		return fmt.Errorf("%w: output length %d not a word multiple", ErrBadLine, len(dst))
	}
	var r bitio.Reader
	r.Reset(comp)
	for off := 0; off < len(dst); off += 4 {
		hi, err := c.upper.decodeHalf(&r)
		if err != nil {
			return fmt.Errorf("%w: word %d: %v", ErrBadLine, off/4, err)
		}
		lo, err := c.lower.decodeHalf(&r)
		if err != nil {
			return fmt.Errorf("%w: word %d: %v", ErrBadLine, off/4, err)
		}
		binary.LittleEndian.PutUint32(dst[off:], uint32(hi)<<16|uint32(lo))
	}
	return nil
}

// BitLengths attributes the encoded bits of one cache line to its output
// bytes (core.LineCodec): each halfword's bits are charged to its two
// bytes, so they sum to the line's exact encoded size.
func (c *Coder) BitLengths(line []byte) (lens [lat.LineSize]uint8, err error) {
	if len(line) != lat.LineSize {
		return lens, fmt.Errorf("codepack: line length %d, want %d", len(line), lat.LineSize)
	}
	for off := 0; off < len(line); off += 4 {
		word := binary.LittleEndian.Uint32(line[off:])
		hb := c.upper.halfBits(uint16(word >> 16))
		lb := c.lower.halfBits(uint16(word))
		// Little-endian layout: bytes 0,1 are the low half, 2,3 the high.
		// A half takes at most a 255-bit codeword and a 16-bit literal,
		// so each byte's share fits.
		lens[off] = uint8(lb / 2)
		lens[off+1] = uint8(lb - lb/2)
		lens[off+2] = uint8(hb / 2)
		lens[off+3] = uint8(hb - hb/2)
	}
	return lens, nil
}

// Name identifies the coder in reports (core.LineCodec).
func (c *Coder) Name() string { return "codepack" }

// DictionaryBytes is the decoder table cost: two 255-entry halfword
// dictionaries (hardwired alongside the Huffman index codes).
func (c *Coder) DictionaryBytes() int {
	return 2 * (len(c.upper.table) + len(c.lower.table))
}

// coderWire is the gob shape of a serialized Coder: the two dictionaries
// plus their entropy codes (via huffman.Code's own binary form). The
// index tables are derived state and are rebuilt on decode.
type coderWire struct {
	Upper, Lower halfWire
}

type halfWire struct {
	Table []uint16
	Code  []byte
}

// MarshalBinary serializes the coder so a trained dictionary can persist
// across processes (the artifact-store analogue of CodePack's
// development-time fixed tables).
func (c *Coder) MarshalBinary() ([]byte, error) {
	wire := coderWire{}
	var err error
	if wire.Upper, err = c.upper.wire(); err != nil {
		return nil, err
	}
	if wire.Lower, err = c.lower.wire(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		return nil, fmt.Errorf("codepack: marshal: %w", err)
	}
	return buf.Bytes(), nil
}

func (h *halfCoder) wire() (halfWire, error) {
	code, err := h.code.MarshalBinary()
	if err != nil {
		return halfWire{}, fmt.Errorf("codepack: marshal code: %w", err)
	}
	return halfWire{Table: h.table, Code: code}, nil
}

// UnmarshalCoder reconstructs a Coder serialized by MarshalBinary. The
// result encodes and decodes byte-identically to the original: the
// dictionaries, index tables, and canonical codes are fully determined by
// the wire form.
func UnmarshalCoder(p []byte) (*Coder, error) {
	var wire coderWire
	if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&wire); err != nil {
		return nil, fmt.Errorf("codepack: unmarshal: %w", err)
	}
	c := &Coder{}
	var err error
	if c.upper, err = wire.Upper.coder(); err != nil {
		return nil, err
	}
	if c.lower, err = wire.Lower.coder(); err != nil {
		return nil, err
	}
	return c, nil
}

func (w halfWire) coder() (halfCoder, error) {
	if len(w.Table) > tableSize {
		return halfCoder{}, fmt.Errorf("codepack: unmarshal: dictionary of %d entries exceeds %d",
			len(w.Table), tableSize)
	}
	code, err := huffman.UnmarshalCode(w.Code)
	if err != nil {
		return halfCoder{}, fmt.Errorf("codepack: unmarshal code: %w", err)
	}
	h, err := newHalfCoder(w.Table, code)
	if err != nil {
		return halfCoder{}, fmt.Errorf("codepack: unmarshal: %w", err)
	}
	return h, nil
}
