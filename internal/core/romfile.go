package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"ccrp/internal/bitio"
	"ccrp/internal/huffman"
	"ccrp/internal/lat"
)

// ROM image file format, the artifact the host-side compression tool
// (cmd/ccpack) hands to the embedded system: the packed compressed blocks
// followed by the Line Address Table, plus the header a loader needs and
// the code tables for non-hardwired codes.

const (
	romMagic   = 0x43524F4D // "CROM"
	romVersion = 1
	// maxROMSection bounds every length a ROM file claims (original
	// size, blocks, LAT, tags, each code table), so a hostile header
	// cannot make ReadROMFile allocate gigabytes before the short read
	// that exposes it.
	maxROMSection = 1 << 26
)

// ErrBadROMFile is returned when parsing a malformed ROM file.
var ErrBadROMFile = errors.New("core: malformed ROM file")

// WriteFile serializes the ROM image. Only a ROM whose codecs are all
// Huffman codes is serializable: another codec's decode tables live in
// the codec, not the file.
func (r *ROM) WriteFile(w io.Writer) error {
	codes := make([]*huffman.Code, len(r.codecs))
	for i, c := range r.codecs {
		hc, ok := c.(HuffmanCodec)
		if !ok {
			return fmt.Errorf("core: cannot serialize a ROM built with codec %q", c.Name())
		}
		codes[i] = hc.code
	}
	latBytes := r.Table.Bytes()
	var hdr [28]byte
	binary.LittleEndian.PutUint32(hdr[0:], romMagic)
	binary.LittleEndian.PutUint32(hdr[4:], romVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(r.OriginalSize))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(r.Blocks)))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(latBytes)))
	flags := uint32(len(codes))
	if r.wordAligned {
		flags |= 1 << 16
	}
	binary.LittleEndian.PutUint32(hdr[20:], flags)
	// Per-line code tags, zero bits wide for a single code.
	var tw bitio.Writer
	width := tagWidth(len(codes))
	for _, l := range r.Lines {
		tw.WriteBits(uint64(max(l.CodeIdx, 0)), width) // raw lines are flagged in the LAT; tag unused
	}
	tagBytes := tw.Bytes()
	binary.LittleEndian.PutUint32(hdr[24:], uint32(len(tagBytes)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, code := range codes {
		blob, err := code.MarshalBinary()
		if err != nil {
			return err
		}
		var sz [4]byte
		binary.LittleEndian.PutUint32(sz[:], uint32(len(blob)))
		if _, err := w.Write(sz[:]); err != nil {
			return err
		}
		if _, err := w.Write(blob); err != nil {
			return err
		}
	}
	if _, err := w.Write(tagBytes); err != nil {
		return err
	}
	if _, err := w.Write(r.Blocks); err != nil {
		return err
	}
	_, err := w.Write(latBytes)
	return err
}

// ReadROMFile reconstructs a ROM image, locating every block through the
// LAT and decompressing it to recover the original line contents (and
// thereby verifying the file). It accepts only the file WriteFile writes
// for BuildROM's image of that text under the file's codes and
// alignment: every line is coded as BuildROM's sizing picks (canonical),
// and every bit no field uses is zero.
func ReadROMFile(rd io.Reader) (*ROM, error) {
	var hdr [28]byte
	if _, err := io.ReadFull(rd, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadROMFile, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != romMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadROMFile)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != romVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadROMFile, v)
	}
	origSize := int(binary.LittleEndian.Uint32(hdr[8:]))
	blockLen := int(binary.LittleEndian.Uint32(hdr[12:]))
	latLen := int(binary.LittleEndian.Uint32(hdr[16:]))
	flags := binary.LittleEndian.Uint32(hdr[20:])
	tagLen := int(binary.LittleEndian.Uint32(hdr[24:]))
	nCodes := int(flags & 0xFFFF)
	if nCodes < 1 || nCodes > 16 || flags>>17 != 0 || max(origSize, blockLen, latLen, tagLen) > maxROMSection {
		return nil, fmt.Errorf("%w: implausible header", ErrBadROMFile)
	}
	// BuildROM always pads the text to whole lines, so any other size
	// is a malformed file, not a short last line.
	if origSize%LineSize != 0 {
		return nil, fmt.Errorf("%w: original size %d is not a multiple of the %d-byte line", ErrBadROMFile, origSize, LineSize)
	}
	lines, width := origSize/LineSize, tagWidth(nCodes)
	if want := (lines*int(width) + 7) / 8; tagLen != want {
		return nil, fmt.Errorf("%w: %d bytes of code tags, %d lines need %d", ErrBadROMFile, tagLen, lines, want)
	}
	codecs := make([]LineCodec, nCodes)
	for i := range codecs {
		var sz [4]byte
		if _, err := io.ReadFull(rd, sz[:]); err != nil {
			return nil, fmt.Errorf("%w: code table %d: %v", ErrBadROMFile, i, err)
		}
		n := binary.LittleEndian.Uint32(sz[:])
		if n > maxROMSection {
			return nil, fmt.Errorf("%w: code table %d: implausible size %d", ErrBadROMFile, i, n)
		}
		blob := make([]byte, n)
		if _, err := io.ReadFull(rd, blob); err != nil {
			return nil, fmt.Errorf("%w: code table %d: %v", ErrBadROMFile, i, err)
		}
		code, err := huffman.UnmarshalCode(blob)
		if err != nil {
			return nil, fmt.Errorf("%w: code table %d: %v", ErrBadROMFile, i, err)
		}
		if canon, err := code.MarshalBinary(); err != nil || !bytes.Equal(canon, blob) {
			return nil, fmt.Errorf("%w: code table %d is not as WriteFile writes it", ErrBadROMFile, i)
		}
		codecs[i] = NewHuffmanCodec(code)
	}
	tags := make([]byte, tagLen)
	if _, err := io.ReadFull(rd, tags); err != nil {
		return nil, fmt.Errorf("%w: tags: %v", ErrBadROMFile, err)
	}
	blocks := make([]byte, blockLen)
	if _, err := io.ReadFull(rd, blocks); err != nil {
		return nil, fmt.Errorf("%w: blocks: %v", ErrBadROMFile, err)
	}
	latBytes := make([]byte, latLen)
	if _, err := io.ReadFull(rd, latBytes); err != nil {
		return nil, fmt.Errorf("%w: LAT: %v", ErrBadROMFile, err)
	}
	table, err := lat.Parse(latBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadROMFile, err)
	}
	// The LAT has exactly one entry per eight lines, so a header claiming
	// more lines than the table covers is malformed, as is a spare entry
	// or a length in a slot past the last line, and the line headers
	// below are sized by what the file holds.
	if want := (lines + lat.LinesPerEntry - 1) / lat.LinesPerEntry; len(table.Entries) != want {
		return nil, fmt.Errorf("%w: %d lines need %d LAT entries, the file holds %d", ErrBadROMFile, lines, want, len(table.Entries))
	}
	if used := lines % lat.LinesPerEntry; used != 0 && !zeroFrom(table.Entries[len(table.Entries)-1].Lens[used:], 0) {
		return nil, fmt.Errorf("%w: the last LAT entry holds lengths past the last line", ErrBadROMFile)
	}
	table.Blocks = lines

	// The blocks lie end to end from the start of the block region to its
	// end, so each entry's base is where the previous entry's blocks end
	// and the last line's block ends the region. Each line's tag must
	// select a code; the line then expands into its slice of one
	// contiguous text image, so loading a large ROM costs one allocation
	// for the text plus one for the line tags.
	rom := &ROM{Lines: make([]Line, table.Blocks), Table: table, Blocks: blocks,
		OriginalSize: origSize, text: make([]byte, origSize), codecs: codecs,
		wordAligned: flags&(1<<16) != 0}
	tagReader := bitio.NewReader(tags)
	end := 0 // where the previous line's block ends
	for i := range rom.Lines {
		e, slot := rom.entry(i)
		if slot == 0 && int(e.Base) != end {
			return nil, fmt.Errorf("%w: LAT entry %d starts at %#x, not where the blocks before it end (%#x)", ErrBadROMFile, i/lat.LinesPerEntry, e.Base, end)
		}
		if end += e.BlockLength(slot); end > len(blocks) {
			return nil, fmt.Errorf("%w: block %d outside block region", ErrBadROMFile, i)
		}
		idx, err := tagReader.ReadBits(width)
		if err != nil {
			return nil, fmt.Errorf("%w: tag %d: %v", ErrBadROMFile, i, err)
		}
		rom.Lines[i].CodeIdx = -1
		if !e.IsRaw(slot) {
			if int(idx) >= nCodes {
				return nil, fmt.Errorf("%w: block %d selects code %d of %d", ErrBadROMFile, i, idx, nCodes)
			}
			rom.Lines[i].CodeIdx = int(idx)
		}
		if err := rom.DecompressLineInto(i, rom.orig(i)); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadROMFile, err)
		}
		if err := rom.canonical(i, idx); err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrBadROMFile, i, err)
		}
	}
	if end != len(blocks) {
		return nil, fmt.Errorf("%w: %d bytes after the last block", ErrBadROMFile, len(blocks)-end)
	}
	if !zeroFrom(tags, lines*int(width)) {
		return nil, fmt.Errorf("%w: bits after the last code tag are set", ErrBadROMFile)
	}
	return rom, nil
}

// canonical checks line i, decoded, against how BuildROM stores its
// text: coded by the codec sizeLine picks, or raw (code tag 0) when it
// picks none, in the stored size it gives, and with every bit after the
// last codeword zero, word-alignment bytes included. tag is the line's
// code tag in the file.
func (r *ROM) canonical(i int, tag uint64) error {
	best, nbits, size, err := r.sizeLine(r.orig(i))
	coding := func(idx int) string {
		if idx < 0 {
			return "raw"
		}
		return fmt.Sprintf("with code %d", idx)
	}
	switch {
	case err != nil:
		return err
	case best != r.Lines[i].CodeIdx:
		return fmt.Errorf("stored %s, BuildROM stores it %s", coding(r.Lines[i].CodeIdx), coding(best))
	case best < 0 && tag != 0:
		return fmt.Errorf("raw, with code tag %d", tag)
	case r.storedLen(i) != size:
		return fmt.Errorf("stored in %d bytes, BuildROM stores it in %d", r.storedLen(i), size)
	case best >= 0 && !zeroFrom(r.Stored(i), nbits):
		return fmt.Errorf("bits after its last codeword are set")
	}
	return nil
}

// zeroFrom reports whether every bit of p from bit n on (MSB first, as
// bitio writes) is zero.
func zeroFrom(p []byte, n int) bool {
	rest := p[n/8:]
	if n%8 != 0 {
		if rest[0]<<(n%8) != 0 {
			return false
		}
		rest = rest[1:]
	}
	for _, b := range rest {
		if b != 0 {
			return false
		}
	}
	return true
}

// Text returns the original program text, padded to whole lines: line i
// is its LineSize bytes at i*LineSize. The ROM holds it once and returns
// it, not a copy; it is read-only, and a caller that modifies it changes
// the ROM's lines.
func (r *ROM) Text() []byte { return r.text }
