package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

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
