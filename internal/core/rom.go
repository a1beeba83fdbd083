// Package core implements the Compressed Code RISC Processor (CCRP) of
// Wolfe & Chanin (MICRO 1992): the host-side ROM compression tool, the
// cycle-level code-expanding cache refill engine, and the trace-driven
// system simulator that compares a standard R2000-style processor with a
// CCRP built around the same core.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"

	"ccrp/internal/huffman"
	"ccrp/internal/lat"
)

// LineSize is the instruction cache line / compression block size.
const LineSize = lat.LineSize

// Options configures ROM compression. BuildROM resolves it into one list
// of LineCodecs, each of Codes through NewHuffmanCodec, or Codec alone,
// and codes every line through that list.
type Options struct {
	// Codes are the candidate Huffman codes. With one code this is the
	// paper's base scheme (typically the Preselected Bounded Huffman
	// code); with several, each block picks its smallest encoding and a
	// per-block tag selects the code at refill time (§2.2's multi-code
	// extension). Raw storage is always available as the bypass case.
	Codes []*huffman.Code
	// Codec, when set, replaces Codes with one other per-line scheme
	// (e.g. the CodePack-style coder). WriteFile serializes only ROMs
	// whose codecs are all Huffman codes: another codec's tables live in
	// the codec, not the ROM format.
	Codec LineCodec
	// WordAligned rounds each stored block up to a 4-byte boundary,
	// simplifying the fetch hardware at a small compression cost
	// (Figure 1's fully-aligned layout; byte-aligned is the default).
	WordAligned bool
}

// Line is one instruction block's code-select tag, the field the ROM
// file stores per line. Where the block is stored, and whether raw, is
// the LAT's to say (Stored, Raw); its original bytes are its LineSize
// bytes of Text.
type Line struct {
	CodeIdx int // index of the codec that coded the line, -1 when raw
}

// ROM is a compressed program image: the packed blocks followed by the
// Line Address Table, as laid out in embedded instruction memory. It
// holds each block once, in Blocks, located only through Table, and the
// text once, in the padded image that Text returns.
type ROM struct {
	Lines        []Line
	Table        *lat.Table
	Blocks       []byte // packed block region (starts at address 0)
	OriginalSize int    // padded text size
	text         []byte // the padded text, OriginalSize bytes
	codecs       []LineCodec
	wordAligned  bool
}

// ErrNoCodes is returned when Options has neither Codes nor a Codec.
var ErrNoCodes = errors.New("core: at least one Huffman code is required")

// BuildROM compresses an R2000 text image line by line. It sizes every
// line first, so the block region is allocated once at its exact length,
// and then encodes each chosen line into its slot of it.
func BuildROM(text []byte, opts Options) (*ROM, error) {
	codecs := []LineCodec{opts.Codec}
	if opts.Codec == nil {
		codecs = make([]LineCodec, len(opts.Codes))
		for i, code := range opts.Codes {
			codecs[i] = NewHuffmanCodec(code)
		}
	}
	if len(codecs) == 0 {
		return nil, ErrNoCodes
	}
	padded := make([]byte, (len(text)+LineSize-1)/LineSize*LineSize)
	copy(padded, text)

	n := len(padded) / LineSize
	rom := &ROM{Lines: make([]Line, n), OriginalSize: len(padded), text: padded,
		codecs: codecs, wordAligned: opts.WordAligned}
	blockLens := make([]int, n)
	encLens := make([]int, n) // a coded line's bytes before word alignment
	total := 0
	for i := range rom.Lines {
		best, nbits, size, err := rom.sizeLine(rom.orig(i))
		if err != nil {
			return nil, fmt.Errorf("core: line at %#x: %w", i*LineSize, err)
		}
		rom.Lines[i].CodeIdx = best
		blockLens[i], encLens[i] = size, (nbits+7)/8
		total += size
	}
	table, err := lat.Build(blockLens, 0)
	if err != nil {
		return nil, err
	}
	rom.Table = table
	blocks := make([]byte, 0, total)
	for i, l := range rom.Lines {
		off := len(blocks)
		if rom.Raw(i) {
			blocks = append(blocks, rom.orig(i)...)
		} else {
			codec := rom.codecs[l.CodeIdx]
			if blocks, err = codec.AppendLine(blocks, rom.orig(i)); err != nil {
				return nil, fmt.Errorf("core: line at %#x: %w", i*LineSize, err)
			}
			// The LAT records the size the bit lengths give; a longer
			// encoding would spill into the next slot and be priced as
			// shorter than it is.
			if enc := len(blocks) - off; enc > encLens[i] {
				return nil, fmt.Errorf("core: line at %#x: codec %q encoded %d bytes, its BitLengths sum to %d",
					i*LineSize, codec.Name(), enc, encLens[i])
			}
		}
		blocks = blocks[:off+blockLens[i]] // a word-aligned slot ends in zeros
	}
	rom.Blocks = blocks
	return rom, nil
}

// sizeLine sizes a block under every codec from its BitLengths and picks
// the first that stores it smallest: it returns that codec's index, the
// line's encoded bits and its stored size in bytes (word-rounded when the
// image is word aligned). The index is -1, and the size LineSize, when no
// codec shrinks the line below the line size and it is stored raw.
func (r *ROM) sizeLine(orig []byte) (best, nbits, size int, err error) {
	best, size = -1, LineSize
	for ci, codec := range r.codecs {
		lens, err := codec.BitLengths(orig)
		if errors.Is(err, huffman.ErrNoCodeword) {
			continue // the codec cannot represent some byte; try others or raw
		}
		if err != nil {
			return 0, 0, 0, err
		}
		bits := 0
		for _, l := range lens {
			bits += int(l)
		}
		stored := (bits + 7) / 8
		if r.wordAligned {
			stored = (stored + 3) / 4 * 4
		}
		if stored < size {
			best, nbits, size = ci, bits, stored
		}
	}
	return best, nbits, size, nil
}

// BlocksSize returns the packed compressed block bytes.
func (r *ROM) BlocksSize() int { return len(r.Blocks) }

// TableSize returns the LAT storage in bytes.
func (r *ROM) TableSize() int { return r.Table.Size() }

// TagBits returns the per-image cost in bits of the per-block code-select
// tags; zero for a single code (the raw flag lives in the LAT for free).
func (r *ROM) TagBits() int {
	return int(tagWidth(len(r.codecs))) * len(r.Lines)
}

// tagWidth is the bits of one code-select tag among n codes: enough to
// number them, so none for a single code.
func tagWidth(n int) uint { return uint(bits.Len(uint(max(n-1, 0)))) }

// CompressedSize returns the total instruction memory footprint: blocks,
// LAT, and code-select tags. Code tables are accounted separately by the
// caller because preselected codes are hardwired and cost nothing.
func (r *ROM) CompressedSize() int {
	return r.BlocksSize() + r.TableSize() + (r.TagBits()+7)/8
}

// Ratio returns CompressedSize / OriginalSize.
func (r *ROM) Ratio() float64 {
	if r.OriginalSize == 0 {
		return 1
	}
	return float64(r.CompressedSize()) / float64(r.OriginalSize)
}

// entry returns the LAT entry that locates line i and the line's slot
// in it.
func (r *ROM) entry(i int) (lat.Entry, int) {
	_ = r.Lines[i] // a line past the program panics; the last entry's spare slots are no line's
	ei, slot := r.Table.EntryFor(uint32(i * LineSize))
	return r.Table.Entries[ei], slot
}

// Raw reports whether line i is stored uncompressed, the decoder bypass:
// its LAT length code is 0.
func (r *ROM) Raw(i int) bool {
	e, slot := r.entry(i)
	return e.IsRaw(slot)
}

// storedLen returns the bytes line i is stored in, from its LAT length
// alone.
func (r *ROM) storedLen(i int) int {
	e, slot := r.entry(i)
	return e.BlockLength(slot)
}

// Stored returns line i as stored in instruction memory, the slice of
// Blocks its LAT entry locates: the entry's base plus the lengths of the
// lines before it in the entry, as the CLB's address unit computes it.
func (r *ROM) Stored(i int) []byte {
	e, slot := r.entry(i)
	addr := int(e.BlockAddress(slot))
	end := addr + e.BlockLength(slot)
	return r.Blocks[addr:end:end]
}

// orig returns the LineSize original bytes of line i, a slice of Text.
func (r *ROM) orig(i int) []byte { return r.text[i*LineSize : (i+1)*LineSize] }

// LineIndex returns the block index holding program address addr.
func (r *ROM) LineIndex(addr uint32) (int, error) {
	i := int(addr / LineSize)
	if i >= len(r.Lines) {
		return 0, fmt.Errorf("core: address %#x outside program (%d lines)", addr, len(r.Lines))
	}
	return i, nil
}

// DecompressLine expands block i back to its 32 instruction bytes, the
// software twin of the refill engine's data path.
func (r *ROM) DecompressLine(i int) ([]byte, error) {
	out := make([]byte, LineSize)
	if err := r.DecompressLineInto(i, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecompressLineInto expands block i into dst, which must be exactly
// LineSize bytes, through the codec that coded it. This is the
// zero-allocation form of DecompressLine: hot callers (the serving
// decompress path, Verify, page expansion) own the buffer, so nothing on
// the decode path touches the heap.
func (r *ROM) DecompressLineInto(i int, dst []byte) error {
	if i < 0 || i >= len(r.Lines) {
		return fmt.Errorf("core: line %d out of range", i)
	}
	if len(dst) != LineSize {
		return fmt.Errorf("core: line buffer is %d bytes, want %d", len(dst), LineSize)
	}
	stored := r.Stored(i)
	if r.Raw(i) {
		copy(dst, stored) // a raw block is the line's LineSize bytes
		return nil
	}
	if err := r.codecs[r.Lines[i].CodeIdx].DecodeLineInto(dst, stored); err != nil {
		return fmt.Errorf("core: line %d: %w", i, err)
	}
	return nil
}

// Verify decompresses every block and checks it against the original
// text, proving the image executes identically. It reuses one line
// buffer, so verification itself stays off the allocator's hot path
// (sweeps verify inside already-parallel workers).
func (r *ROM) Verify() error {
	buf := make([]byte, LineSize)
	for i := range r.Lines {
		if err := r.DecompressLineInto(i, buf); err != nil {
			return err
		}
		if !bytes.Equal(buf, r.orig(i)) {
			return fmt.Errorf("core: line %d decompresses incorrectly", i)
		}
	}
	return nil
}

// RawLines counts blocks stored uncompressed.
func (r *ROM) RawLines() int {
	n := 0
	for i := range r.Lines {
		if r.Raw(i) {
			n++
		}
	}
	return n
}
