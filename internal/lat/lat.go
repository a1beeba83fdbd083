// Package lat implements the Line Address Table of the Compressed Code
// RISC Processor. The LAT maps program (uncompressed) instruction block
// addresses to the physical locations of the compressed blocks in
// instruction memory.
//
// Each 8-byte entry covers eight consecutive 32-byte cache lines (256
// program bytes): a 3-byte pointer to the first compressed block followed
// by eight 5-bit compressed-block lengths. A length field of 0 marks a
// block stored uncompressed (32 bytes), which is also the decoder-bypass
// flag. The storage overhead is 8/256 = 3.125% of the original program.
package lat

import (
	"errors"
	"fmt"

	"ccrp/internal/bitio"
)

// Geometry of the paper's proposed implementation (§3.2).
const (
	LineSize      = 32                       // bytes per cache line / compressed block
	LinesPerEntry = 8                        // blocks covered by one LAT entry
	EntryBytes    = 8                        // serialized entry size
	GroupSpan     = LineSize * LinesPerEntry // program bytes per entry (256)
	maxBlockLen   = 31                       // largest length a 5-bit field holds
)

// ErrBadEntry is returned when decoding a malformed entry.
var ErrBadEntry = errors.New("lat: malformed entry")

// Entry is one Line Address Table record.
type Entry struct {
	Base uint32               // 24-bit physical address of the first block
	Lens [LinesPerEntry]uint8 // 5-bit length codes; 0 = raw 32-byte block
}

// BlockLength returns the stored size in bytes of block i (1..32).
func (e Entry) BlockLength(i int) int {
	if e.Lens[i] == 0 {
		return LineSize
	}
	return int(e.Lens[i])
}

// IsRaw reports whether block i is stored uncompressed (decoder bypass).
func (e Entry) IsRaw(i int) bool { return e.Lens[i] == 0 }

// Validate checks that the entry fits its 8-byte memory representation:
// a 24-bit base and eight 5-bit length codes. Encode silently truncates
// out-of-range fields (33 wraps to 1 in 5 bits, corrupting every block
// address computed after it), so callers constructing entries by hand
// must validate before encoding; Build enforces this for whole tables.
func (e Entry) Validate() error {
	if e.Base >= 1<<24 {
		return fmt.Errorf("%w: base %#x exceeds 24-bit space", ErrBadEntry, e.Base)
	}
	for i, l := range e.Lens {
		if l > maxBlockLen {
			return fmt.Errorf("%w: block %d length code %d exceeds 5-bit field", ErrBadEntry, i, l)
		}
	}
	return nil
}

// BlockAddress returns the physical address of block i within the entry:
// the base plus the lengths of the preceding blocks. This models the
// CLB's address computation unit (the adder tree of Figure 8).
func (e Entry) BlockAddress(i int) uint32 {
	addr := e.Base
	for j := 0; j < i; j++ {
		addr += uint32(e.BlockLength(j))
	}
	return addr
}

// Encode packs the entry into its 8-byte memory representation: a 24-bit
// little-endian base followed by eight 5-bit fields, MSB first.
func (e Entry) Encode() [EntryBytes]byte {
	var w bitio.Writer
	w.WriteBits(uint64(e.Base>>0)&0xFF, 8)
	w.WriteBits(uint64(e.Base>>8)&0xFF, 8)
	w.WriteBits(uint64(e.Base>>16)&0xFF, 8)
	for _, l := range e.Lens {
		w.WriteBits(uint64(l), 5)
	}
	var out [EntryBytes]byte
	copy(out[:], w.Bytes())
	return out
}

// DecodeEntry unpacks an 8-byte entry.
func DecodeEntry(b [EntryBytes]byte) (Entry, error) {
	r := bitio.NewReader(b[:])
	var e Entry
	lo, _ := r.ReadBits(8)
	mid, _ := r.ReadBits(8)
	hi, _ := r.ReadBits(8)
	e.Base = uint32(lo) | uint32(mid)<<8 | uint32(hi)<<16
	for i := range e.Lens {
		v, err := r.ReadBits(5)
		if err != nil {
			return Entry{}, ErrBadEntry
		}
		e.Lens[i] = uint8(v)
	}
	return e, nil
}

// Table is a complete LAT for a program whose text starts at address 0.
type Table struct {
	Entries []Entry
	Blocks  int // number of real blocks (the last entry may be partial)
}

// Build constructs a table from per-line stored block lengths (each 1..32,
// where 32 means raw) laid out consecutively starting at firstBlockAddr.
func Build(blockLens []int, firstBlockAddr uint32) (*Table, error) {
	t := &Table{
		Entries: make([]Entry, 0, (len(blockLens)+LinesPerEntry-1)/LinesPerEntry),
		Blocks:  len(blockLens),
	}
	addr := firstBlockAddr
	for i := 0; i < len(blockLens); i += LinesPerEntry {
		e := Entry{Base: addr}
		if addr >= 1<<24 {
			return nil, fmt.Errorf("%w: block address %#x exceeds 24-bit space", ErrBadEntry, addr)
		}
		for j := 0; j < LinesPerEntry && i+j < len(blockLens); j++ {
			l := blockLens[i+j]
			switch {
			case l == LineSize:
				e.Lens[j] = 0
			case l >= 1 && l <= maxBlockLen:
				e.Lens[j] = uint8(l)
			default:
				// Rejecting here keeps out-of-range lengths from ever
				// reaching Encode, where they would wrap in the 5-bit
				// field (33 -> 1) and shift every later block address.
				return nil, fmt.Errorf("%w: block %d has unstorable length %d", ErrBadEntry, i+j, l)
			}
			addr += uint32(l)
		}
		if err := e.Validate(); err != nil {
			return nil, err
		}
		t.Entries = append(t.Entries, e)
	}
	return t, nil
}

// EntryFor returns the entry index and block-within-entry index for the
// given program (uncompressed) byte address.
func (t *Table) EntryFor(progAddr uint32) (entry, block int) {
	line := progAddr / LineSize
	return int(line / LinesPerEntry), int(line % LinesPerEntry)
}

// Lookup returns the physical address and stored length of the compressed
// block holding progAddr.
func (t *Table) Lookup(progAddr uint32) (addr uint32, length int, raw bool, err error) {
	ei, bi := t.EntryFor(progAddr)
	if line := int(progAddr / LineSize); line >= t.Blocks || ei >= len(t.Entries) {
		return 0, 0, false, fmt.Errorf("lat: address %#x beyond table (%d blocks)", progAddr, t.Blocks)
	}
	e := t.Entries[ei]
	return e.BlockAddress(bi), e.BlockLength(bi), e.IsRaw(bi), nil
}

// Bytes serializes the whole table.
func (t *Table) Bytes() []byte {
	out := make([]byte, 0, len(t.Entries)*EntryBytes)
	for _, e := range t.Entries {
		enc := e.Encode()
		out = append(out, enc[:]...)
	}
	return out
}

// Size returns the table's storage cost in bytes.
func (t *Table) Size() int { return len(t.Entries) * EntryBytes }

// Parse reconstructs a table from its serialized form.
func Parse(b []byte) (*Table, error) {
	if len(b)%EntryBytes != 0 {
		return nil, fmt.Errorf("%w: size %d not a multiple of %d", ErrBadEntry, len(b), EntryBytes)
	}
	t := &Table{
		Entries: make([]Entry, 0, len(b)/EntryBytes),
		Blocks:  len(b) / EntryBytes * LinesPerEntry, // upper bound; Build knows better
	}
	for i := 0; i < len(b); i += EntryBytes {
		var raw [EntryBytes]byte
		copy(raw[:], b[i:])
		e, err := DecodeEntry(raw)
		if err != nil {
			return nil, err
		}
		t.Entries = append(t.Entries, e)
	}
	return t, nil
}

// NaiveTableSize returns the storage a one-pointer-per-block LAT would
// need (the paper's rejected 12.5%-overhead baseline), for ablations.
func NaiveTableSize(blocks int) int { return blocks * 4 }
