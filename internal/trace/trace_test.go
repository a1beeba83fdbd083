package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func TestFlags(t *testing.T) {
	e := Event{PC: 0x100, Addr: 0x2000, Flags: FlagLoad}
	if !e.IsLoad() || e.IsStore() || !e.IsMemOp() {
		t.Errorf("load flags wrong: %+v", e)
	}
	e.Flags = FlagStore
	if e.IsLoad() || !e.IsStore() || !e.IsMemOp() {
		t.Errorf("store flags wrong: %+v", e)
	}
	e.Flags = 0
	if e.IsMemOp() {
		t.Error("plain event classified as memop")
	}
}

func TestCounters(t *testing.T) {
	tr := &Trace{Events: []Event{
		{PC: 0}, {PC: 4, Flags: FlagLoad}, {PC: 8, Flags: FlagStore}, {PC: 12},
	}, Stalls: 7}
	if tr.Instructions() != 4 {
		t.Errorf("instructions = %d", tr.Instructions())
	}
	if tr.DataAccesses() != 2 {
		t.Errorf("data accesses = %d", tr.DataAccesses())
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	f := func(pcs []uint32, addrs []uint32, stalls uint64) bool {
		tr := &Trace{Stalls: stalls}
		for i, pc := range pcs {
			var addr uint32
			var flags uint8
			if i < len(addrs) {
				addr = addrs[i]
				flags = FlagLoad
			}
			tr.Events = append(tr.Events, Event{PC: pc &^ 3, Addr: addr, Flags: flags})
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
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

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Read(bytes.NewReader(make([]byte, 24))); err == nil {
		t.Error("zero magic accepted")
	}
	var buf bytes.Buffer
	tr := &Trace{Events: []Event{{PC: 4}, {PC: 8}}}
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated trace accepted")
	}
	// A header's event count is a claim: a 24-byte file claiming 2^27 or
	// 2^32 events is rejected before Read allocates for events it does
	// not hold.
	for _, n := range []uint64{1 << 27, 1 << 32} {
		var hdr [24]byte
		binary.LittleEndian.PutUint32(hdr[0:], magic)
		binary.LittleEndian.PutUint32(hdr[4:], version)
		binary.LittleEndian.PutUint64(hdr[8:], n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(bytes.NewReader(hdr[:]))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; !errors.Is(err, ErrBadTrace) || grew > 1<<20 {
			t.Errorf("header claiming %d events: err = %v after allocating %d bytes, want ErrBadTrace within 1 MiB", n, err, grew)
		}
	}
}

func BenchmarkWriteTo(b *testing.B) {
	tr := &Trace{Events: make([]Event, 100000)}
	for i := range tr.Events {
		tr.Events[i] = Event{PC: uint32(i * 4), Flags: uint8(i & 1)}
	}
	b.SetBytes(int64(len(tr.Events) * 9))
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
