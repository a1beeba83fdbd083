package trace

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzReadTrace feeds arbitrary bytes to Read. Whatever it accepts,
// WriteTo re-serializes to exactly the bytes Read consumed: the format
// has one encoding per trace, and Read neither invents nor drops a
// field.
func FuzzReadTrace(f *testing.F) {
	var buf bytes.Buffer
	var rec Recorder
	rec.Add(4, false, false)
	rec.Add(8, true, false)
	rec.Add(12, false, true)
	rec.Add(0x40, false, false)
	if _, err := rec.Trace(3).WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// Cut short inside its second read chunk, mid-run.
	long := seqFile(chunkRuns + 100)
	f.Add(long[:24+recLen*(chunkRuns+50)+3])

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		got, err := Read(r)
		if err != nil {
			return
		}
		consumed := data[:len(data)-r.Len()]
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("WriteTo gives %d bytes %x, Read consumed %d bytes %x", out.Len(), out.Bytes(), len(consumed), consumed)
		}
	})
}

// refAdd is the appender Recorder replaced, kept as the reference
// FuzzRecorder and TestRecorderBlocks check it against: it extends the
// last run of events in place and starts a new run by append.
func refAdd(events []Event, pc uint32, load, store bool) []Event {
	if n := len(events); n > 0 {
		r := &events[n-1]
		if pc == r.PC+uint32(r.N)*WordBytes && pc/LineBytes == r.PC/LineBytes {
			r.N++
			r.Loads += one(load)
			r.Stores += one(store)
			return events
		}
	}
	return append(events, Event{PC: pc, N: 1, Loads: one(load), Stores: one(store)})
}

// FuzzRecorder records an arbitrary program of fetches and compares the
// recorder with refAdd. Each pair of bytes is one instruction: the first
// picks the next pc (the next word, the same word, an absolute word
// from the second byte, or a relative jump by it that may wrap around
// the address space) and whether it loads or stores; the program runs
// reps%32+1 times, so a short input fills several blocks. A Snapshot
// after the instruction numbered at matches the reference's runs at that
// point and is not changed by the rest of the recording; the final trace
// matches the reference, is exactly sized, and reads back from its file.
// Its seeds are in testdata/fuzz/FuzzRecorder.
func FuzzRecorder(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte, reps uint8, at uint16) {
		var rec Recorder
		var ref, want []Event
		var snap *Trace
		pc, step := uint32(0), 0
		for range int(reps%32) + 1 {
			for i := 0; i+1 < len(prog); i += 2 {
				op, arg := prog[i], prog[i+1]
				switch op % 4 {
				case 0:
					pc += WordBytes
				case 2:
					pc = uint32(arg) * WordBytes
				case 3:
					pc += uint32(int8(arg)) * WordBytes
				}
				load, store := op&4 != 0, op&12 == 8
				rec.Add(pc, load, store)
				ref = refAdd(ref, pc, load, store)
				if step == int(at) {
					snap, want = rec.Snapshot(1), slices.Clone(ref)
				}
				step++
			}
		}
		if snap != nil {
			if !slices.Equal(snap.Events, want) || cap(snap.Events) != len(snap.Events) {
				t.Fatalf("snapshot after %d adds: %d runs (cap %d), reference %d", at+1, len(snap.Events), cap(snap.Events), len(want))
			}
			clear(snap.Events)
		}
		tr := rec.Trace(2)
		if !slices.Equal(tr.Events, ref) || cap(tr.Events) != len(tr.Events) || tr.Stalls != 2 {
			t.Fatalf("trace: %d runs (cap %d), reference %d", len(tr.Events), cap(tr.Events), len(ref))
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&buf)
		if err != nil || !slices.Equal(back.Events, ref) {
			t.Fatalf("read back: %v", err)
		}
	})
}
