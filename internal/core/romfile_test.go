package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"ccrp/internal/bitio"
	"ccrp/internal/huffman"
	"ccrp/internal/lat"
)

func TestROMFileRoundTrip(t *testing.T) {
	text := riscLikeText(4096, 21)
	code := testCode(t, text)
	rom, err := BuildROM(text, Options{Codes: []*huffman.Code{code}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rom.WriteFile(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadROMFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.OriginalSize != rom.OriginalSize || len(got.Lines) != len(rom.Lines) {
		t.Fatalf("geometry changed: %d/%d vs %d/%d",
			got.OriginalSize, len(got.Lines), rom.OriginalSize, len(rom.Lines))
	}
	if !bytes.Equal(got.Text(), rom.Text()) {
		t.Fatal("text changed through ROM file round trip")
	}
	if !bytes.Equal(got.Text()[:len(text)], text) {
		t.Fatal("reconstructed text differs from the original program")
	}
	if err := got.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestROMFileMultiCodeRoundTrip(t *testing.T) {
	a := riscLikeText(1024, 22)
	b := bytes.Repeat([]byte{0x12, 0x34, 0x56, 0x78}, 256)
	text := append(append([]byte{}, a...), b...)
	rom, err := BuildROM(text, Options{
		Codes:       []*huffman.Code{testCode(t, a), testCode(t, b)},
		WordAligned: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rom.WriteFile(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadROMFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Text()[:len(text)], text) {
		t.Fatal("multi-code round trip corrupted text")
	}
	for i := range got.Lines {
		if got.Raw(i) != rom.Raw(i) || got.Lines[i] != rom.Lines[i] || !bytes.Equal(got.Stored(i), rom.Stored(i)) {
			t.Fatalf("line %d metadata changed: %+v vs %+v", i, got.Lines[i], rom.Lines[i])
		}
	}
}

func TestReadROMFileRejectsGarbage(t *testing.T) {
	if _, err := ReadROMFile(bytes.NewReader(nil)); err == nil {
		t.Error("empty file accepted")
	}
	if _, err := ReadROMFile(bytes.NewReader(make([]byte, 28))); err == nil {
		t.Error("zero header accepted")
	}
	// Valid ROM truncated mid-blocks.
	text := riscLikeText(512, 23)
	rom, err := BuildROM(text, Options{Codes: []*huffman.Code{testCode(t, text)}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rom.WriteFile(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadROMFile(bytes.NewReader(buf.Bytes()[:buf.Len()-10])); err == nil {
		t.Error("truncated ROM accepted")
	}
	// BuildROM pads the text to whole lines, so an original size that is
	// not a multiple of LineSize marks a malformed header.
	unpadded := bytes.Clone(buf.Bytes())
	size := binary.LittleEndian.Uint32(unpadded[8:])
	binary.LittleEndian.PutUint32(unpadded[8:], size+17)
	if _, err := ReadROMFile(bytes.NewReader(unpadded)); !errors.Is(err, ErrBadROMFile) {
		t.Errorf("original size %d (not whole lines): err = %v, want ErrBadROMFile", size+17, err)
	}
	// A file claiming 4 GiB of code tags, or a 4 GiB code table, is
	// rejected before a buffer of that size is made.
	for _, off := range []int{24, 28} { // tag length; first code table's size
		huge := bytes.Clone(buf.Bytes())
		binary.LittleEndian.PutUint32(huge[off:], 0xFFFFFFFF)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadROMFile(bytes.NewReader(huge))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; !errors.Is(err, ErrBadROMFile) || grew > 1<<20 {
			t.Errorf("4 GiB length at offset %d: err = %v after allocating %d bytes, want ErrBadROMFile before allocating", off, err, grew)
		}
	}
}

// withRegions returns file, a WriteFile output of rom, with its block
// region and LAT replaced and the header's two lengths to match.
func withRegions(file []byte, rom *ROM, blocks, latBytes []byte) []byte {
	prefix := len(file) - len(rom.Blocks) - rom.Table.Size()
	out := bytes.Clone(file[:prefix])
	binary.LittleEndian.PutUint32(out[12:], uint32(len(blocks)))
	binary.LittleEndian.PutUint32(out[16:], uint32(len(latBytes)))
	out = append(out, blocks...)
	return append(out, latBytes...)
}

// unlocatedROMFiles returns rewrites of a WriteFile output that still
// decode line for line but hold bytes their LAT does not locate: 100
// junk bytes after the last block, a spare entry past the last line's,
// and four junk bytes between the first entry's blocks and the second's.
func unlocatedROMFiles(t testing.TB) map[string][]byte {
	text := riscLikeText(512, 23) // 16 lines, two LAT entries
	rom, err := BuildROM(text, Options{Codes: []*huffman.Code{testCode(t, text)}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rom.WriteFile(&buf); err != nil {
		t.Fatal(err)
	}
	file, latBytes := buf.Bytes(), rom.Table.Bytes()
	junk := bytes.Repeat([]byte{0xA5}, 100)

	spare := lat.Entry{Base: uint32(len(rom.Blocks))}.Encode()

	second := rom.Table.Entries[1]
	gapped := append(bytes.Clone(rom.Blocks[:second.Base]), junk[:4]...)
	gapped = append(gapped, rom.Blocks[second.Base:]...)
	second.Base += 4
	moved := second.Encode()
	return map[string][]byte{
		"junk after the blocks": withRegions(file, rom, append(bytes.Clone(rom.Blocks), junk...), latBytes),
		"spare LAT entry":       withRegions(file, rom, rom.Blocks, append(bytes.Clone(latBytes), spare[:]...)),
		"gap between entries":   withRegions(file, rom, gapped, append(bytes.Clone(latBytes[:lat.EntryBytes]), moved[:]...)),
	}
}

// TestReadROMFileRejectsUnlocatedBytes: a ROM file holds only what its
// LAT locates. Each rewrite still decodes every line to its text, but
// ReadROMFile rejects it.
func TestReadROMFileRejectsUnlocatedBytes(t *testing.T) {
	for name, file := range unlocatedROMFiles(t) {
		if _, err := ReadROMFile(bytes.NewReader(file)); !errors.Is(err, ErrBadROMFile) {
			t.Errorf("%s: err = %v, want ErrBadROMFile", name, err)
		}
	}
}

// TestReadROMFileRejectsPaddingBits flips, one at a time, every bit a
// 16-line ROM file holds after a compressed line's last codeword: the
// rest of the line's last byte and, word-aligned, its alignment bytes.
// Every line still decodes to its text, and every flip is ErrBadROMFile.
func TestReadROMFileRejectsPaddingBits(t *testing.T) {
	text := riscLikeText(512, 23)
	code := testCode(t, text)
	for _, aligned := range []bool{false, true} {
		rom, err := BuildROM(text, Options{Codes: []*huffman.Code{code}, WordAligned: aligned})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rom.WriteFile(&buf); err != nil {
			t.Fatal(err)
		}
		file := buf.Bytes()
		blocks := len(file) - len(rom.Blocks) - rom.Table.Size()
		flips := 0
		for i := range rom.Lines {
			if rom.Raw(i) {
				continue
			}
			_, nbits, _, err := rom.sizeLine(rom.orig(i))
			if err != nil {
				t.Fatal(err)
			}
			e, slot := rom.entry(i)
			off := blocks + int(e.BlockAddress(slot))
			for bit := nbits; bit < 8*rom.storedLen(i); bit++ {
				flipped := bytes.Clone(file)
				flipped[off+bit/8] ^= 0x80 >> (bit % 8)
				if _, err := ReadROMFile(bytes.NewReader(flipped)); !errors.Is(err, ErrBadROMFile) {
					t.Errorf("word aligned %v, line %d, bit %d: err = %v, want ErrBadROMFile", aligned, i, bit, err)
				}
				flips++
			}
		}
		if flips < 16 {
			t.Fatalf("word aligned %v: %d padding bits; test premise broken", aligned, flips)
		}
	}
}

// restored returns file, the WriteFile output of rom, with each line
// given the code tag and stored bytes that line returns, and the LAT and
// block length rebuilt to match.
func restored(t *testing.T, rom *ROM, file []byte, line func(i int) (tag uint64, stored []byte)) []byte {
	t.Helper()
	var blocks []byte
	lens := make([]int, len(rom.Lines))
	var tags bitio.Writer
	for i := range rom.Lines {
		tag, stored := line(i)
		blocks = append(blocks, stored...)
		lens[i] = len(stored)
		tags.WriteBits(tag, tagWidth(len(rom.codecs)))
	}
	table, err := lat.Build(lens, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := withRegions(file, rom, blocks, table.Bytes())
	tagBytes := tags.Bytes()
	copy(out[len(out)-len(blocks)-table.Size()-len(tagBytes):], tagBytes)
	return out
}

// TestReadROMFileRejectsNonCanonical: ReadROMFile accepts only the file
// WriteFile writes for BuildROM's image of its text. Each rewrite below
// still decodes every line to its text, and each is ErrBadROMFile.
func TestReadROMFileRejectsNonCanonical(t *testing.T) {
	// Two copies of one code, so a line codes alike under either and
	// BuildROM picks the first; 33 lines, the last random and so raw.
	text := append(riscLikeText(1024, 22), make([]byte, LineSize)...)
	rand.New(rand.NewSource(7)).Read(text[1024:])
	code := testCode(t, text[:1024])
	rom, err := BuildROM(text, Options{Codes: []*huffman.Code{code, code}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rom.WriteFile(&buf); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	as := func(i int) (uint64, []byte) { return uint64(max(rom.Lines[i].CodeIdx, 0)), rom.Stored(i) }
	if !bytes.Equal(restored(t, rom, file, as), file) {
		t.Fatal("restored does not rebuild the file as written")
	}
	coded, raw := -1, len(rom.Lines)-1
	for i := range rom.Lines {
		if coded < 0 && !rom.Raw(i) && rom.storedLen(i) < LineSize-1 {
			coded = i
		}
	}
	if coded < 0 || !rom.Raw(raw) {
		t.Fatalf("no short compressed line or no raw last line; test premise broken")
	}
	one := func(j int, tag uint64, stored []byte) []byte {
		return restored(t, rom, file, func(i int) (uint64, []byte) {
			if i == j {
				return tag, stored
			}
			return as(i)
		})
	}
	edit := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(file)) }

	aligned, err := BuildROM(text, Options{Codes: []*huffman.Code{code}, WordAligned: true})
	if err != nil {
		t.Fatal(err)
	}
	var alignedFile bytes.Buffer
	if err := aligned.WriteFile(&alignedFile); err != nil {
		t.Fatal(err)
	}
	wide := -1
	for i := range aligned.Lines {
		if wide < 0 && !aligned.Raw(i) && aligned.storedLen(i) <= LineSize-8 {
			wide = i
		}
	}
	if wide < 0 {
		t.Fatal("no word-aligned line of 24 bytes or fewer; test premise broken")
	}
	firstTable := 32 + int(binary.LittleEndian.Uint32(file[28:])) // where the first code table ends

	for name, bad := range map[string][]byte{
		"a compressed line one byte longer": one(coded, 0, append(bytes.Clone(rom.Stored(coded)), 0)),
		"a compressed line stored raw":      one(coded, 0, rom.orig(coded)),
		"a line under an equal later code":  one(coded, 1, rom.Stored(coded)),
		"a raw line with a code tag":        one(raw, 1, rom.Stored(raw)),
		"a bit after the last code tag": edit(func(b []byte) []byte {
			b[len(b)-len(rom.Blocks)-rom.Table.Size()-1] |= 1
			return b
		}),
		"a length in a spare LAT slot": edit(func(b []byte) []byte {
			e := rom.Table.Entries[len(rom.Table.Entries)-1]
			e.Lens[lat.LinesPerEntry-1] = 5
			enc := e.Encode()
			copy(b[len(b)-lat.EntryBytes:], enc[:])
			return b
		}),
		"a flag bit past the alignment flag": edit(func(b []byte) []byte {
			b[22] |= 2
			return b
		}),
		"a byte after a code table": edit(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[28:], binary.LittleEndian.Uint32(b[28:])+1)
			return append(append(b[:firstTable:firstTable], 0), file[firstTable:]...)
		}),
		"a word-aligned line one word longer": restored(t, aligned, alignedFile.Bytes(), func(i int) (uint64, []byte) {
			if i == wide {
				return 0, append(bytes.Clone(aligned.Stored(i)), 0, 0, 0, 0)
			}
			return 0, aligned.Stored(i)
		}),
	} {
		if _, err := ReadROMFile(bytes.NewReader(bad)); !errors.Is(err, ErrBadROMFile) {
			t.Errorf("%s: err = %v, want ErrBadROMFile", name, err)
		}
	}
}
