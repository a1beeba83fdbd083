package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// TestAdd: Add extends the last run with the next word of its line and
// starts a new run at a line boundary, a jump, or a refetch of the same
// word; loads and stores accumulate in the run that holds them.
func TestAdd(t *testing.T) {
	var tr Trace
	for pc := uint32(0x100); pc < 0x130; pc += 4 { // 12 words: a whole line, then 4 more
		tr.Add(pc, pc == 0x104, pc == 0x120)
	}
	tr.Add(0x200, true, false) // jump
	tr.Add(0x200, false, true) // the same word again: a loop of one
	tr.Add(0x204, false, false)
	want := []Event{
		{PC: 0x100, N: 8, Loads: 1},
		{PC: 0x120, N: 4, Stores: 1},
		{PC: 0x200, N: 1, Loads: 1},
		{PC: 0x200, N: 2, Stores: 1},
	}
	if !reflect.DeepEqual(tr.Events, want) {
		t.Errorf("runs = %+v, want %+v", tr.Events, want)
	}
	for i, e := range tr.Events {
		if err := e.check(); err != nil {
			t.Errorf("run %d: %v", i, err)
		}
	}
}

func TestCounters(t *testing.T) {
	tr := &Trace{Stalls: 7}
	tr.Add(0, false, false)
	tr.Add(4, true, false)
	tr.Add(8, false, true)
	tr.Add(12, false, false)
	tr.Add(0, true, false)
	if tr.Instructions() != 5 {
		t.Errorf("instructions = %d", tr.Instructions())
	}
	if tr.DataAccesses() != 3 {
		t.Errorf("data accesses = %d", tr.DataAccesses())
	}
}

// validRun turns a random word into a run Add could have produced.
func validRun(s uint64) Event {
	pc := uint32(s) &^ (WordBytes - 1)
	room := (LineBytes - pc%LineBytes) / WordBytes
	n := 1 + uint8(uint32(s>>32)%room)
	loads := uint8(s>>40) % (n + 1)
	stores := uint8(s>>48) % (n - loads + 1)
	return Event{PC: pc, N: n, Loads: loads, Stores: stores}
}

func TestSerializationRoundTrip(t *testing.T) {
	f := func(seeds []uint64, stalls uint64) bool {
		tr := &Trace{Stalls: stalls}
		for _, s := range seeds {
			tr.Events = append(tr.Events, validRun(s))
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			return false
		}
		if buf.Len() != 24+recLen*len(tr.Events) {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.Stalls != tr.Stalls {
			return false
		}
		if len(got.Events) == 0 && len(tr.Events) == 0 {
			return true
		}
		return reflect.DeepEqual(got.Events, tr.Events)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// header returns a trace header of the given version claiming n runs.
func header(v uint32, n uint64) []byte {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], v)
	binary.LittleEndian.PutUint64(hdr[8:], n)
	return hdr
}

// withRun returns a one-run trace file holding e verbatim.
func withRun(e Event) []byte {
	rec := binary.LittleEndian.AppendUint32(header(version, 1), e.PC)
	return append(rec, e.N, e.Loads, e.Stores)
}

func TestReadRejectsGarbage(t *testing.T) {
	var buf bytes.Buffer
	tr := &Trace{}
	tr.Add(4, false, false)
	tr.Add(0x40, false, false)
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	v1 := append(header(1, 2), make([]byte, 18)...) // two 9-byte version-1 records
	for _, c := range []struct {
		name, want string
		data       []byte
	}{
		{"empty input", "header", nil},
		{"zero magic", "bad magic", make([]byte, 24)},
		{"truncated run", "run 1", buf.Bytes()[:buf.Len()-3]},
		{"version 1", "unsupported version 1", v1},
		{"empty run", "run of 0 fetches", withRun(Event{PC: 0x40})},
		{"run of 9", "run of 9 fetches", withRun(Event{PC: 0x40, N: 9})},
		{"unaligned pc", "not word aligned", withRun(Event{PC: 0x42, N: 1})},
		{"crosses line", "crosses its 32-byte line", withRun(Event{PC: 0x5c, N: 2})},
		{"loads and stores over N", "3 loads and 1 stores", withRun(Event{PC: 0x40, N: 3, Loads: 3, Stores: 1})},
	} {
		_, err := Read(bytes.NewReader(c.data))
		if !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want ErrBadTrace mentioning %q", c.name, err, c.want)
		}
	}
	// The longest run at the end of its line is fine.
	if _, err := Read(bytes.NewReader(withRun(Event{PC: 0x40, N: MaxRun, Loads: 4, Stores: 4}))); err != nil {
		t.Errorf("full-line run rejected: %v", err)
	}
	// A header's run count is a claim: a 24-byte file claiming 2^27 or
	// 2^32 runs is rejected before Read allocates for runs it does not
	// hold.
	for _, n := range []uint64{1 << 27, 1 << 32} {
		hdr := header(version, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(bytes.NewReader(hdr))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; !errors.Is(err, ErrBadTrace) || grew > 1<<20 {
			t.Errorf("header claiming %d runs: err = %v after allocating %d bytes, want ErrBadTrace within 1 MiB", n, err, grew)
		}
	}
}

func BenchmarkWriteTo(b *testing.B) {
	tr := &Trace{}
	for i := 0; i < 100000; i++ {
		tr.Add(uint32(i*4), i&1 == 1, false)
	}
	b.SetBytes(int64(len(tr.Events) * recLen))
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
