package lat

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEntryEncodeDecode(t *testing.T) {
	e := Entry{Base: 0xABCDEF, Lens: [8]uint8{0, 1, 31, 15, 7, 0, 22, 3}}
	enc := e.Encode()
	got, err := DecodeEntry(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatalf("round trip: got %+v, want %+v", got, e)
	}
}

func TestEntryEncodeDecodeQuick(t *testing.T) {
	f := func(base uint32, lens [8]uint8) bool {
		e := Entry{Base: base & 0xFFFFFF}
		for i, l := range lens {
			e.Lens[i] = l & 31
		}
		got, err := DecodeEntry(e.Encode())
		return err == nil && got == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockSemantics(t *testing.T) {
	e := Entry{Base: 0x1000, Lens: [8]uint8{10, 0, 31, 1, 0, 0, 0, 0}}
	if e.BlockLength(0) != 10 || e.BlockLength(1) != 32 || e.BlockLength(2) != 31 {
		t.Error("block lengths wrong")
	}
	if !e.IsRaw(1) || e.IsRaw(0) {
		t.Error("raw flags wrong")
	}
	if e.BlockAddress(0) != 0x1000 {
		t.Errorf("block 0 at %#x", e.BlockAddress(0))
	}
	if e.BlockAddress(1) != 0x1000+10 {
		t.Errorf("block 1 at %#x", e.BlockAddress(1))
	}
	if e.BlockAddress(3) != 0x1000+10+32+31 {
		t.Errorf("block 3 at %#x", e.BlockAddress(3))
	}
}

func TestBuildAndLookup(t *testing.T) {
	// 20 blocks of varying lengths -> 3 entries.
	lens := make([]int, 20)
	rng := rand.New(rand.NewSource(4))
	for i := range lens {
		if rng.Intn(4) == 0 {
			lens[i] = 32 // raw
		} else {
			lens[i] = 1 + rng.Intn(31)
		}
	}
	tab, err := Build(lens, 0x2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Entries) != 3 {
		t.Fatalf("entries = %d", len(tab.Entries))
	}
	// Walk all program addresses and compare against a linear layout.
	addr := uint32(0x2000)
	for i, l := range lens {
		progAddr := uint32(i * LineSize)
		got, gotLen, raw, err := tab.Lookup(progAddr + 13) // any offset in line
		if err != nil {
			t.Fatal(err)
		}
		if got != addr || gotLen != l {
			t.Errorf("block %d: got %#x/%d, want %#x/%d", i, got, gotLen, addr, l)
		}
		if raw != (l == 32) {
			t.Errorf("block %d raw = %v", i, raw)
		}
		addr += uint32(l)
	}
	if _, _, _, err := tab.Lookup(uint32(len(lens)) * LineSize); err == nil {
		t.Error("lookup past table accepted")
	}
}

// TestBuildLengthBoundaries pins the 5-bit length-field boundaries. The
// old code rejected bad lengths with an untyped error (and Encode would
// wrap any length that slipped through, 33 -> 1), so the errors.Is
// assertions below fail on it; valid boundaries must round-trip through
// Encode unchanged.
func TestBuildLengthBoundaries(t *testing.T) {
	cases := []struct {
		length  int
		ok      bool
		wantLen uint8 // encoded 5-bit code when ok
	}{
		{length: 0, ok: false},
		{length: 1, ok: true, wantLen: 1},
		{length: 31, ok: true, wantLen: 31},
		{length: 32, ok: true, wantLen: 0}, // raw / decoder bypass
		{length: 33, ok: false},
		{length: -1, ok: false},
	}
	for _, tc := range cases {
		tab, err := Build([]int{tc.length}, 0)
		if !tc.ok {
			if err == nil {
				t.Errorf("length %d: accepted, want ErrBadEntry", tc.length)
			} else if !errors.Is(err, ErrBadEntry) {
				t.Errorf("length %d: error %v does not wrap ErrBadEntry", tc.length, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("length %d: rejected: %v", tc.length, err)
			continue
		}
		if got := tab.Entries[0].Lens[0]; got != tc.wantLen {
			t.Errorf("length %d: encoded code %d, want %d", tc.length, got, tc.wantLen)
		}
		// The code must survive Encode/DecodeEntry without wrapping.
		dec, err := DecodeEntry(tab.Entries[0].Encode())
		if err != nil {
			t.Errorf("length %d: round trip: %v", tc.length, err)
		} else if dec.Lens[0] != tc.wantLen {
			t.Errorf("length %d: round-tripped code %d, want %d", tc.length, dec.Lens[0], tc.wantLen)
		}
	}
}

func TestBuildRejectsBadBase(t *testing.T) {
	if _, err := Build([]int{16}, 1<<24); !errors.Is(err, ErrBadEntry) {
		t.Errorf("address beyond 24 bits: err = %v, want ErrBadEntry", err)
	}
}

// TestEntryValidate covers hand-constructed entries, the path Build
// cannot police.
func TestEntryValidate(t *testing.T) {
	if err := (Entry{Base: 1<<24 - 1, Lens: [8]uint8{31, 0, 1}}).Validate(); err != nil {
		t.Errorf("maximal valid entry rejected: %v", err)
	}
	if err := (Entry{Base: 1 << 24}).Validate(); !errors.Is(err, ErrBadEntry) {
		t.Errorf("26-bit base: err = %v, want ErrBadEntry", err)
	}
	if err := (Entry{Lens: [8]uint8{0, 33}}).Validate(); !errors.Is(err, ErrBadEntry) {
		t.Errorf("length code 33: err = %v, want ErrBadEntry", err)
	}
}

func TestTableSerialization(t *testing.T) {
	lens := []int{32, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	tab, err := Build(lens, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := tab.Bytes()
	if len(b) != tab.Size() || tab.Size() != 2*EntryBytes {
		t.Fatalf("size = %d bytes", len(b))
	}
	got, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != len(tab.Entries) {
		t.Fatal("entry count changed")
	}
	for i := range got.Entries {
		if got.Entries[i] != tab.Entries[i] {
			t.Errorf("entry %d changed: %+v vs %+v", i, got.Entries[i], tab.Entries[i])
		}
	}
	if _, err := Parse(b[:5]); err == nil {
		t.Error("truncated table accepted")
	}
}

func TestOverhead(t *testing.T) {
	// 256 bytes of program per 8-byte entry = 3.125%.
	lens := make([]int, 64) // 64 lines = 2KB program
	for i := range lens {
		lens[i] = 20
	}
	tab, err := Build(lens, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(tab.Size()) / float64(64*LineSize); got != 0.03125 {
		t.Errorf("overhead = %v, want 0.03125", got)
	}
	// The naive pointer-per-block scheme costs 12.5%.
	if naive := float64(NaiveTableSize(64)) / float64(64*LineSize); naive != 0.125 {
		t.Errorf("naive overhead = %v", naive)
	}
}

func BenchmarkBlockAddress(b *testing.B) {
	e := Entry{Base: 0x8000, Lens: [8]uint8{9, 17, 0, 25, 31, 4, 12, 30}}
	for i := 0; i < b.N; i++ {
		_ = e.BlockAddress(i & 7)
	}
}
