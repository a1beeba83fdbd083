package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// TestAdd: Add extends the open run with the next word of its line and
// starts a new run at a line boundary, a jump, or a refetch of the same
// word; loads and stores accumulate in the run that holds them.
func TestAdd(t *testing.T) {
	var rec Recorder
	for pc := uint32(0x100); pc < 0x130; pc += 4 { // 12 words: a whole line, then 4 more
		rec.Add(pc, pc == 0x104, pc == 0x120)
	}
	rec.Add(0x200, true, false) // jump
	rec.Add(0x200, false, true) // the same word again: a loop of one
	rec.Add(0x204, false, false)
	tr := rec.Trace(0)
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
	var rec Recorder
	rec.Add(0, false, false)
	rec.Add(4, true, false)
	rec.Add(8, false, true)
	rec.Add(12, false, false)
	rec.Add(0, true, false)
	tr := rec.Trace(7)
	if tr.Stalls != 7 {
		t.Errorf("stalls = %d", tr.Stalls)
	}
	if tr.Instructions() != 5 {
		t.Errorf("instructions = %d", tr.Instructions())
	}
	if tr.DataAccesses() != 3 {
		t.Errorf("data accesses = %d", tr.DataAccesses())
	}
}

// validRun turns a random word into a run Recorder.Add could have
// produced.
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

// seqFile returns a trace file of n runs, each one fetch at the next
// line.
func seqFile(n int) []byte {
	var rec Recorder
	for i := range n {
		rec.Add(uint32(i)*LineBytes, false, false)
	}
	var buf bytes.Buffer
	rec.Trace(0).WriteTo(&buf) // a bytes.Buffer write cannot fail
	return buf.Bytes()
}

func TestReadRejectsGarbage(t *testing.T) {
	two := seqFile(2)
	v1 := append(header(1, 2), make([]byte, 18)...) // two 9-byte version-1 records
	// A file of 1500 runs is read in two chunks. The first truncated run
	// is i + bytesRead/recLen, counting from the second chunk's first run
	// i = chunkRuns; a bad run before the cut is named first.
	long := seqFile(1500)
	badThenCut := slices.Clone(long[:24+recLen*1400])
	badThenCut[24+recLen*1100+4] = 0 // run 1100 holds no fetch
	for _, c := range []struct {
		name, want string
		data       []byte
	}{
		{"empty input", "header", nil},
		{"zero magic", "bad magic", make([]byte, 24)},
		{"truncated run", "run 1: unexpected EOF", two[:len(two)-3]},
		{"missing run", "run 1: EOF", two[:len(two)-recLen]},
		{"truncated in second chunk", "run 1200: unexpected EOF", long[:24+recLen*1200+5]},
		{"missing in second chunk", "run 1300: EOF", long[:24+recLen*1300]},
		{"bad run before the cut", "run 1100: run of 0 fetches", badThenCut},
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
	// 2^32 runs is rejected after Read allocates one read chunk and its
	// error, not room for the runs it claims.
	const limit = recLen*chunkRuns + 4096
	for _, n := range []uint64{1 << 27, 1 << 32} {
		hdr := header(version, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(bytes.NewReader(hdr))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; !errors.Is(err, ErrBadTrace) || grew > limit {
			t.Errorf("header claiming %d runs: err = %v after allocating %d bytes, want ErrBadTrace within %d", n, err, grew, limit)
		}
	}
}

// TestRecorderBlocks records a sequence that fills more than three
// blocks, with a Snapshot taken mid-run just after the first block
// fills. The snapshot holds the open run, the trace matches the
// reference appender and is exactly sized, and changing the snapshot
// changes nothing the recorder returns later.
func TestRecorderBlocks(t *testing.T) {
	var rec Recorder
	var ref []Event
	var snap *Trace
	var want []Event
	for i := range 40000 {
		// Runs of 1 to 5 fetches, each at the start of the next line.
		base := uint32(i) * LineBytes
		for k := range uint32(i%5 + 1) {
			pc, load := base+k*WordBytes, k%3 == 1
			rec.Add(pc, load, false)
			ref = refAdd(ref, pc, load, false)
			if i == blockRuns && k == 1 {
				snap, want = rec.Snapshot(5), slices.Clone(ref)
			}
		}
	}
	if got := len(rec.blocks); got < 4 {
		t.Fatalf("recording filled %d blocks, want at least 4", got)
	}
	if !slices.Equal(snap.Events, want) || snap.Stalls != 5 || cap(snap.Events) != len(snap.Events) {
		t.Fatalf("snapshot of %d runs (cap %d) differs from the reference's %d", len(snap.Events), cap(snap.Events), len(want))
	}
	if last := snap.Events[len(snap.Events)-1]; last.N != 2 || last.Loads != 1 {
		t.Errorf("snapshot's last run = %+v, want the open run of 2 fetches", last)
	}
	for i := range snap.Events {
		snap.Events[i] = Event{PC: 0xdead0000}
	}
	tr := rec.Trace(9)
	if !slices.Equal(tr.Events, ref) || tr.Stalls != 9 || cap(tr.Events) != len(tr.Events) {
		t.Fatalf("trace of %d runs (cap %d) differs from the reference's %d", len(tr.Events), cap(tr.Events), len(ref))
	}
	if len(rec.blocks) != 0 || len(rec.block) != 0 || rec.open.N != 0 {
		t.Error("Trace left runs in the recorder")
	}
}

// TestRecorderAllocs: once the pool holds blocks, recording allocates
// only the trace's exact slice and a constant (8 KiB covers the slice's
// rounding up to whole pages and the list of blocks, where one more
// block would be 64 KiB), and Read of a 100K-run file at most 1.1 times
// the runs it returns. The garbage collector is off and one P runs, as
// in testing.AllocsPerRun, so the pool keeps the blocks of the first
// pass where the second finds them: a block put on one P's private slot
// is not seen from another.
func TestRecorderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops blocks at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 100_000
	record := func() *Trace {
		var rec Recorder
		for i := range n {
			rec.Add(uint32(i)*LineBytes, i%2 == 0, false)
		}
		return rec.Trace(0)
	}
	file := seqFile(n)
	read := func() *Trace {
		tr, err := Read(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	exact := uint64(n * 8) // 8 bytes per Event
	for _, c := range []struct {
		name  string
		f     func() *Trace
		limit uint64
	}{
		{"record", record, exact + 8192},
		{"read", read, exact + exact/10},
	} {
		c.f() // fills the pool
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr := c.f()
		runtime.ReadMemStats(&after)
		if len(tr.Events) != n {
			t.Fatalf("%s: %d runs, want %d", c.name, len(tr.Events), n)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > c.limit {
			t.Errorf("%s: %d runs allocated %d bytes, want at most %d (exact slice %d)", c.name, n, grew, c.limit, exact)
		}
	}
}

// benchTrace is the benchmarks' fixture: 100,000 sequential fetches,
// every other one a load, recorded as 12,500 runs of 8.
func benchTrace() *Trace {
	var rec Recorder
	for i := range 100_000 {
		rec.Add(uint32(i*4), i&1 == 1, false)
	}
	return rec.Trace(0)
}

func BenchmarkWriteTo(b *testing.B) {
	tr := benchTrace()
	b.SetBytes(int64(len(tr.Events) * recLen))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecord records benchTrace's fetches; its MB/s counts the
// trace's file size, as BenchmarkWriteTo's and BenchmarkRead's do.
func BenchmarkRecord(b *testing.B) {
	b.SetBytes(int64(len(benchTrace().Events) * recLen))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = benchTrace()
	}
}

func BenchmarkRead(b *testing.B) {
	var buf bytes.Buffer
	if _, err := benchTrace().WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		sink = tr
	}
}

// sink keeps the benchmarks' results live.
var sink *Trace
