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
//
// A Recorder builds every trace, the simulator's and Read's alike. It
// keeps the open run itself and writes finished runs into fixed-size
// blocks taken from a package pool, so recording never copies a run to
// grow a slice. Trace then copies the blocks into one exactly sized
// slice and returns them to the pool for the next recording.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
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

// check reports why e is not a run Recorder.Add could have produced.
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
// performance model needs. Events holds the runs in execution order, in
// a slice of exactly their number; a Recorder builds it.
type Trace struct {
	Events []Event
	Stalls uint64 // pipeline stall cycles attributed by the simulator
}

// blockRuns is the number of runs in one recorder block (64 KiB).
const blockRuns = 8192

// blockPool holds empty recorder blocks, each of capacity blockRuns.
var blockPool = sync.Pool{New: func() any {
	b := make([]Event, 0, blockRuns)
	return &b
}}

// Recorder builds a trace one executed instruction at a time. The zero
// value is an empty recorder ready to use; a Recorder must not be copied
// once used, and is not safe for concurrent use.
type Recorder struct {
	open   Event      // the run Add extends; N is 0 while there is none
	block  []Event    // the block being filled: *blocks[len(blocks)-1]
	blocks []*[]Event // blocks from blockPool in order; all but the last are full
}

// Add records one executed instruction, fetched from the word-aligned
// pc, that read (load) or wrote (store) data memory. It extends the open
// run when pc is the next word of that run's line, and starts a new run
// otherwise. Before the first Add the open run is empty (N == 0 at PC
// 0): the extension test then passes only for pc 0, and extending the
// empty run starts the run at 0, as a new run would.
func (r *Recorder) Add(pc uint32, load, store bool) {
	o := &r.open
	if pc == o.PC+uint32(o.N)*WordBytes && pc/LineBytes == o.PC/LineBytes {
		o.N++
		o.Loads += one(load)
		o.Stores += one(store)
		return
	}
	if o.N != 0 {
		r.push(*o)
	}
	*o = Event{PC: pc, N: 1, Loads: one(load), Stores: one(store)}
}

// push appends a finished run to the current block.
func (r *Recorder) push(e Event) {
	if len(r.block) == cap(r.block) {
		r.grow()
	}
	r.block = append(r.block, e)
}

// grow takes the next block from the pool.
func (r *Recorder) grow() {
	b := blockPool.Get().(*[]Event)
	r.blocks = append(r.blocks, b)
	r.block = (*b)[:0]
}

// Snapshot returns the runs recorded so far, the open one included, in a
// slice of exactly their number that shares no memory with the recorder.
// Recording goes on: a later Add may still extend the open run.
func (r *Recorder) Snapshot(stalls uint64) *Trace {
	full := r.blocks
	if len(full) > 0 {
		full = full[:len(full)-1] // the last block is r.block
	}
	n := len(full)*blockRuns + len(r.block)
	if r.open.N != 0 {
		n++
	}
	ev := make([]Event, 0, n)
	for _, b := range full {
		ev = append(ev, (*b)[:blockRuns]...)
	}
	ev = append(ev, r.block...)
	if r.open.N != 0 {
		ev = append(ev, r.open)
	}
	return &Trace{Events: ev, Stalls: stalls}
}

// Trace returns the runs recorded so far as Snapshot does, then returns
// the recorder's blocks to the pool and empties it.
func (r *Recorder) Trace(stalls uint64) *Trace {
	t := r.Snapshot(stalls)
	r.free()
	return t
}

// free returns the recorder's blocks to the pool and empties it.
func (r *Recorder) free() {
	for _, b := range r.blocks {
		blockPool.Put(b)
	}
	*r = Recorder{}
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

// chunkRuns is the number of records Read decodes per read call.
const chunkRuns = 1024

// Read deserializes a trace written by WriteTo. Every run must be one
// Recorder.Add could have produced; a version-1 file (one record per
// fetch) is rejected. The header's run count is a claim, not a size:
// Read reads at most chunkRuns records at a time into a Recorder, so a
// short file cannot make it allocate for runs it does not hold.
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
	var rec Recorder
	buf := make([]byte, recLen*min(n, chunkRuns))
	for i := uint64(0); i < n; {
		got, err := io.ReadFull(r, buf[:recLen*min(n-i, chunkRuns)])
		for b := buf[:got-got%recLen]; len(b) > 0; b = b[recLen:] {
			e := Event{PC: binary.LittleEndian.Uint32(b), N: b[4], Loads: b[5], Stores: b[6]}
			if err := e.check(); err != nil {
				rec.free()
				return nil, fmt.Errorf("%w: run %d: %v", ErrBadTrace, i, err)
			}
			rec.push(e)
			i++
		}
		if err != nil {
			if err == io.ErrUnexpectedEOF && got%recLen == 0 {
				err = io.EOF // the first missing run has no byte
			}
			rec.free()
			return nil, fmt.Errorf("%w: run %d: %v", ErrBadTrace, i, err)
		}
	}
	return rec.Trace(binary.LittleEndian.Uint64(hdr[16:])), nil
}
