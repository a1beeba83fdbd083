// Package trace defines the instruction-address trace format shared by
// the functional simulator (producer) and the cache/system simulators
// (consumers). It plays the role pixie's address traces played in the
// paper's experimental method.
//
// A trace records runs of sequential fetches, not single fetches. The
// i-cache refills whole 32-byte lines, so fetching from the line just
// fetched is a hit that changes no cache, CLB or page state: a consumer
// decides once per run and counts the run's other fetches as hits. The
// fetch addresses themselves are PC, PC+4, … and regenerate from the run.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Run geometry. Both registered ISAs fetch 4-byte words, and a run stays
// inside one line of the paper's i-cache.
const (
	WordBytes = 4
	LineBytes = 32
	MaxRun    = LineBytes / WordBytes // fetches in the longest run
)

// Event is one trace record: a run of N fetches at PC, PC+4, …, all
// inside one LineBytes line. Loads of its instructions read data memory
// and Stores wrote it; no instruction does both.
type Event struct {
	PC     uint32
	N      uint8
	Loads  uint8
	Stores uint8
}

// check reports why e is not a run Add could have produced.
func (e Event) check() error {
	switch {
	case e.N == 0 || e.N > MaxRun:
		return fmt.Errorf("run of %d fetches, want 1 to %d", e.N, MaxRun)
	case e.PC%WordBytes != 0:
		return fmt.Errorf("run at %#x is not word aligned", e.PC)
	case e.PC%LineBytes+uint32(e.N)*WordBytes > LineBytes:
		return fmt.Errorf("run of %d at %#x crosses its %d-byte line", e.N, e.PC, LineBytes)
	case int(e.Loads)+int(e.Stores) > int(e.N):
		return fmt.Errorf("run of %d holds %d loads and %d stores", e.N, e.Loads, e.Stores)
	}
	return nil
}

// Trace is a complete execution trace plus the summary counters the
// performance model needs. Events holds the runs in execution order;
// producers extend it through Add.
type Trace struct {
	Events []Event
	Stalls uint64 // pipeline stall cycles attributed by the simulator
}

// Add records one executed instruction, fetched from the word-aligned
// pc, that read (load) or wrote (store) data memory. It extends the last
// run when pc is the next word of that run's line, and starts a new run
// otherwise.
func (t *Trace) Add(pc uint32, load, store bool) {
	if n := len(t.Events); n > 0 {
		r := &t.Events[n-1]
		if pc == r.PC+uint32(r.N)*WordBytes && pc/LineBytes == r.PC/LineBytes {
			r.N++
			r.Loads += one(load)
			r.Stores += one(store)
			return
		}
	}
	t.start(Event{PC: pc, N: 1, Loads: one(load), Stores: one(store)})
}

// minRuns is the capacity of a trace's first allocation.
const minRuns = 1024

// start appends a new run. Events doubles when full: append grows a large
// slice by about a quarter, so a trace of n runs would allocate about 5n
// runs in all, where doubling allocates about 2n.
func (t *Trace) start(e Event) {
	if n := len(t.Events); n == cap(t.Events) {
		grown := make([]Event, n, max(2*n, minRuns))
		copy(grown, t.Events)
		t.Events = grown
	}
	t.Events = append(t.Events, e)
}

func one(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// Instructions returns the dynamic instruction count: the sum of the run
// lengths.
func (t *Trace) Instructions() int {
	n := 0
	for _, e := range t.Events {
		n += int(e.N)
	}
	return n
}

// DataAccesses counts the instructions that read or wrote data memory.
func (t *Trace) DataAccesses() int {
	n := 0
	for _, e := range t.Events {
		n += int(e.Loads) + int(e.Stores)
	}
	return n
}

const (
	magic   = 0x43435254 // "CCRT"
	version = 2
	recLen  = 7 // PC (4 bytes), N, Loads, Stores
)

// ErrBadTrace is returned when a serialized trace is malformed.
var ErrBadTrace = errors.New("trace: malformed trace file")

// WriteTo serializes the trace in a compact binary format: a 24-byte
// header (magic, version, run count, stalls), then 7 bytes per run.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], version)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(t.Events)))
	binary.LittleEndian.PutUint64(hdr[16:], t.Stalls)
	n, err := w.Write(hdr[:])
	total := int64(n)
	if err != nil {
		return total, err
	}
	buf := make([]byte, 0, recLen*4096)
	for i, e := range t.Events {
		buf = binary.LittleEndian.AppendUint32(buf, e.PC)
		buf = append(buf, e.N, e.Loads, e.Stores)
		if len(buf) == cap(buf) || i == len(t.Events)-1 {
			n, err := w.Write(buf)
			total += int64(n)
			if err != nil {
				return total, err
			}
			buf = buf[:0]
		}
	}
	return total, nil
}

// maxPrealloc caps the runs Read allocates before any has arrived.
// The header's count is a claim, not a size: the slice grows as records
// are read, so a short file cannot make Read allocate for runs it does
// not hold.
const maxPrealloc = 1 << 12

// Read deserializes a trace written by WriteTo. Every run must be one
// Add could have produced; a version-1 file (one record per fetch) is
// rejected.
func Read(r io.Reader) (*Trace, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadTrace, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadTrace)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadTrace, v)
	}
	n := binary.LittleEndian.Uint64(hdr[8:])
	if n > 1<<32 {
		return nil, fmt.Errorf("%w: implausible run count %d", ErrBadTrace, n)
	}
	t := &Trace{
		Events: make([]Event, 0, min(n, maxPrealloc)),
		Stalls: binary.LittleEndian.Uint64(hdr[16:]),
	}
	var rec [recLen]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			return nil, fmt.Errorf("%w: run %d: %v", ErrBadTrace, i, err)
		}
		e := Event{PC: binary.LittleEndian.Uint32(rec[0:]), N: rec[4], Loads: rec[5], Stores: rec[6]}
		if err := e.check(); err != nil {
			return nil, fmt.Errorf("%w: run %d: %v", ErrBadTrace, i, err)
		}
		t.Events = append(t.Events, e)
	}
	return t, nil
}
