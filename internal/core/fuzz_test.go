package core

import (
	"bytes"
	"testing"

	"ccrp/internal/huffman"
)

// FuzzReadROMFile hardens the ROM file parser: arbitrary bytes must never
// panic, and every accepted file must verify and re-serialize.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		rom, err := ReadROMFile(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := rom.Verify(); err != nil {
			t.Fatalf("accepted ROM fails Verify: %v", err)
		}
		var out bytes.Buffer
		if err := rom.WriteFile(&out); err != nil {
			t.Fatalf("accepted ROM fails re-serialization: %v", err)
		}
	})
}
