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

	"ccrp/internal/huffman"
	"ccrp/internal/lat"
)

// LineSize is the instruction cache line / compression block size.
const LineSize = lat.LineSize

// Options configures ROM compression.
type Options struct {
	// Codes are the candidate Huffman codes. With one code this is the
	// paper's base scheme (typically the Preselected Bounded Huffman
	// code); with several, each block picks its smallest encoding and a
	// per-block tag selects the code at refill time (§2.2's multi-code
	// extension). Raw storage is always available as the bypass case.
	Codes []*huffman.Code
	// Codec, when set, replaces Codes with an alternative per-line
	// compression scheme (e.g. the CodePack-style coder); raw bypass and
	// LAT handling are unchanged. Codec images cannot be serialized with
	// WriteFile (their tables live in the codec, not the ROM format).
	Codec LineCodec
	// WordAligned rounds each stored block up to a 4-byte boundary,
	// simplifying the fetch hardware at a small compression cost
	// (Figure 1's fully-aligned layout; byte-aligned is the default).
	WordAligned bool
}

// Line is one compressed (or raw) instruction block.
type Line struct {
	Orig    []byte // the 32 original instruction bytes
	Stored  []byte // bytes as stored in instruction memory
	Raw     bool   // stored uncompressed (decoder bypass)
	CodeIdx int    // index into Options.Codes, -1 when raw
}

// ROM is a compressed program image: the packed blocks followed by the
// Line Address Table, as laid out in embedded instruction memory.
type ROM struct {
	Lines        []Line
	Table        *lat.Table
	Blocks       []byte // packed block region (starts at address 0)
	OriginalSize int    // padded text size
	opts         Options
}

// ErrNoCodes is returned when Options.Codes is empty.
var ErrNoCodes = errors.New("core: at least one Huffman code is required")

// BuildROM compresses an R2000 text image line by line.
func BuildROM(text []byte, opts Options) (*ROM, error) {
	if len(opts.Codes) == 0 && opts.Codec == nil {
		return nil, ErrNoCodes
	}
	padded := make([]byte, (len(text)+LineSize-1)/LineSize*LineSize)
	copy(padded, text)

	rom := &ROM{OriginalSize: len(padded), opts: opts}
	var blockLens []int
	for off := 0; off < len(padded); off += LineSize {
		orig := padded[off : off+LineSize]
		line, err := compressLine(orig, opts)
		if err != nil {
			return nil, fmt.Errorf("core: line at %#x: %w", off, err)
		}
		rom.Lines = append(rom.Lines, line)
		rom.Blocks = append(rom.Blocks, line.Stored...)
		blockLens = append(blockLens, len(line.Stored))
	}
	table, err := lat.Build(blockLens, 0)
	if err != nil {
		return nil, err
	}
	rom.Table = table
	return rom, nil
}

// compressLine encodes one block with every candidate code and keeps the
// smallest result, falling back to raw storage when nothing shrinks it
// below the line size.
func compressLine(orig []byte, opts Options) (Line, error) {
	best := Line{Orig: orig, Stored: orig, Raw: true, CodeIdx: -1}
	if opts.Codec != nil {
		bits, err := opts.Codec.EncodedBits(orig)
		if err != nil {
			return Line{}, err
		}
		n := (bits + 7) / 8
		if opts.WordAligned {
			n = (n + 3) / 4 * 4
		}
		if n >= LineSize {
			return best, nil
		}
		// The refill model streams a compressed line by its per-byte bit
		// lengths; a codec that cannot attribute them would make every
		// refill of this line free.
		if _, err := opts.Codec.BitLengths(orig); err != nil {
			return Line{}, err
		}
		enc, err := opts.Codec.EncodeLine(orig)
		if err != nil {
			return Line{}, err
		}
		stored := make([]byte, n)
		copy(stored, enc)
		return Line{Orig: orig, Stored: stored, Raw: false, CodeIdx: 0}, nil
	}
	for ci, code := range opts.Codes {
		bits, err := code.EncodedBits(orig)
		if err != nil {
			continue // code cannot represent some byte; try others or raw
		}
		n := (bits + 7) / 8
		if opts.WordAligned {
			n = (n + 3) / 4 * 4
		}
		if n >= LineSize || n >= len(best.Stored) && !best.Raw {
			continue
		}
		enc, err := code.EncodeToBytes(orig)
		if err != nil {
			return Line{}, err
		}
		stored := make([]byte, n)
		copy(stored, enc)
		best = Line{Orig: orig, Stored: stored, Raw: false, CodeIdx: ci}
	}
	return best, nil
}

// BlocksSize returns the packed compressed block bytes.
func (r *ROM) BlocksSize() int { return len(r.Blocks) }

// TableSize returns the LAT storage in bytes.
func (r *ROM) TableSize() int { return r.Table.Size() }

// TagBits returns the per-image cost in bits of the per-block code-select
// tags; zero for a single code (the raw flag lives in the LAT for free).
func (r *ROM) TagBits() int {
	if len(r.opts.Codes) <= 1 {
		return 0
	}
	bits := 1
	for 1<<bits < len(r.opts.Codes) {
		bits++
	}
	return bits * len(r.Lines)
}

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
// LineSize bytes. This is the zero-allocation form of DecompressLine:
// hot callers (the serving decompress path, Verify, page expansion) own
// the buffer, so nothing on the decode path touches the heap. Huffman
// blocks expand through the code's memoized multi-symbol decoder
// (huffman.Code.Multi), proven byte-identical to the canonical one.
func (r *ROM) DecompressLineInto(i int, dst []byte) error {
	if i < 0 || i >= len(r.Lines) {
		return fmt.Errorf("core: line %d out of range", i)
	}
	if len(dst) != LineSize {
		return fmt.Errorf("core: line buffer is %d bytes, want %d", len(dst), LineSize)
	}
	l := r.Lines[i]
	if l.Raw {
		n := copy(dst, l.Stored)
		for j := n; j < LineSize; j++ {
			dst[j] = 0
		}
		return nil
	}
	var err error
	if r.opts.Codec != nil {
		err = r.opts.Codec.DecodeLineInto(dst, l.Stored)
	} else {
		err = r.opts.Codes[l.CodeIdx].Multi().DecodeInto(dst, l.Stored)
	}
	if err != nil {
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
		if !bytes.Equal(buf, r.Lines[i].Orig) {
			return fmt.Errorf("core: line %d decompresses incorrectly", i)
		}
	}
	return nil
}

// bitLengths returns the per-output-byte encoded bit counts for block i,
// which drive the refill engine's streaming model. Huffman blocks fill
// dst, so pricing a refill allocates nothing; codec blocks return the
// codec's own slice. Raw blocks return nil.
func (r *ROM) bitLengths(i int, dst *[LineSize]int) []int {
	l := r.Lines[i]
	if l.Raw {
		return nil
	}
	if r.opts.Codec != nil {
		lens, err := r.opts.Codec.BitLengths(l.Orig)
		if err != nil {
			// BuildROM rejects every line whose BitLengths fails, so
			// only a codec that changes its answer gets here; a silent
			// nil would price the refill at zero cycles.
			panic(fmt.Sprintf("core: line %d: codec BitLengths failed after BuildROM accepted it: %v", i, err))
		}
		return lens
	}
	code := r.opts.Codes[l.CodeIdx]
	lens := dst[:len(l.Orig)]
	for k, b := range l.Orig {
		lens[k] = code.Len(b)
	}
	return lens
}

// RawLines counts blocks stored uncompressed.
func (r *ROM) RawLines() int {
	n := 0
	for _, l := range r.Lines {
		if l.Raw {
			n++
		}
	}
	return n
}
