package core

import (
	"bytes"
	"testing"

	"ccrp/internal/huffman"
)

// FuzzReadROMFile hardens the ROM file parser: arbitrary bytes must never
// panic, and every accepted file must verify and be, byte for byte, the
// file WriteFile writes for BuildROM's image of its text under its codes
// and alignment.
func FuzzReadROMFile(f *testing.F) {
	// Seed with real ROM files of each flavor.
	text := riscLikeText(512, 31)
	var h huffman.Histogram
	h.Add(text)
	code, err := huffman.BuildBounded(h.Smooth(), 16)
	if err != nil {
		f.Fatal(err)
	}
	single, err := BuildROM(text, Options{Codes: []*huffman.Code{code}})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := single.WriteFile(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(buf.Bytes()[:16])
	corrupted := append([]byte(nil), buf.Bytes()...)
	corrupted[40] ^= 0xFF
	f.Add(corrupted)
	unlocated := unlocatedROMFiles(f)
	f.Add(unlocated["junk after the blocks"])
	f.Add(unlocated["spare LAT entry"])
	// Two codes (one tag bit a line), word aligned: six lines under the
	// first, two under the second, and a raw last line.
	pattern := bytes.Repeat([]byte{0xFF, 0x00, 0x7F, 0x80}, 16)
	spread := make([]byte, LineSize)
	for i := range spread {
		spread[i] = byte(i * 8)
	}
	multi, err := BuildROM(append(append(text[:192:192], pattern...), spread...),
		Options{Codes: []*huffman.Code{code, testCode(f, pattern)}, WordAligned: true})
	if err != nil {
		f.Fatal(err)
	}
	var multiFile bytes.Buffer
	if err := multi.WriteFile(&multiFile); err != nil {
		f.Fatal(err)
	}
	f.Add(multiFile.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		rom, err := ReadROMFile(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := rom.Verify(); err != nil {
			t.Fatalf("accepted ROM fails Verify: %v", err)
		}
		codes := make([]*huffman.Code, len(rom.codecs))
		for i, c := range rom.codecs {
			codes[i] = c.(HuffmanCodec).code
		}
		built, err := BuildROM(rom.Text(), Options{Codes: codes, WordAligned: rom.wordAligned})
		if err != nil {
			t.Fatalf("accepted ROM's text does not build: %v", err)
		}
		var out bytes.Buffer
		if err := built.WriteFile(&out); err != nil {
			t.Fatalf("accepted ROM's rebuild fails serialization: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted a %d-byte file; BuildROM of its text writes %d other bytes", len(data), out.Len())
		}
	})
}
