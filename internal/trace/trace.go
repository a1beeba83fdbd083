// Package trace defines the instruction-address trace format shared by
// the functional simulator (producer) and the cache/system simulators
// (consumers). It plays the role pixie's address traces played in the
// paper's experimental method.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Flags classify one executed instruction.
const (
	FlagLoad  uint8 = 1 << iota // instruction read data memory
	FlagStore                   // instruction wrote data memory
)

// Event records one executed instruction: its fetch address, the data
// address it touched (if any), and load/store flags.
type Event struct {
	PC    uint32
	Addr  uint32 // data address for loads/stores, else 0
	Flags uint8
}

// IsLoad reports whether the event performed a data read.
func (e Event) IsLoad() bool { return e.Flags&FlagLoad != 0 }

// IsStore reports whether the event performed a data write.
func (e Event) IsStore() bool { return e.Flags&FlagStore != 0 }

// IsMemOp reports whether the event accessed data memory.
func (e Event) IsMemOp() bool { return e.Flags&(FlagLoad|FlagStore) != 0 }

// Trace is a complete execution trace plus the summary counters the
// performance model needs.
type Trace struct {
	Events []Event
	Stalls uint64 // pipeline stall cycles attributed by the simulator
}

// Instructions returns the dynamic instruction count.
func (t *Trace) Instructions() int { return len(t.Events) }

// DataAccesses counts load/store events.
func (t *Trace) DataAccesses() int {
	n := 0
	for _, e := range t.Events {
		if e.IsMemOp() {
			n++
		}
	}
	return n
}

const (
	magic   = 0x43435254 // "CCRT"
	version = 1
)

// ErrBadTrace is returned when a serialized trace is malformed.
var ErrBadTrace = errors.New("trace: malformed trace file")

// WriteTo serializes the trace in a compact binary format.
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
	buf := make([]byte, 0, 9*4096)
	var rec [9]byte
	for i, e := range t.Events {
		binary.LittleEndian.PutUint32(rec[0:], e.PC)
		binary.LittleEndian.PutUint32(rec[4:], e.Addr)
		rec[8] = e.Flags
		buf = append(buf, rec[:]...)
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

// maxPrealloc caps the events Read allocates before any has arrived.
// The header's count is a claim, not a size: the slice grows as records
// are read, so a short file cannot make Read allocate for events it
// does not hold.
const maxPrealloc = 1 << 12

// Read deserializes a trace written by WriteTo.
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
		return nil, fmt.Errorf("%w: implausible event count %d", ErrBadTrace, n)
	}
	t := &Trace{
		Events: make([]Event, 0, min(n, maxPrealloc)),
		Stalls: binary.LittleEndian.Uint64(hdr[16:]),
	}
	var rec [9]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			return nil, fmt.Errorf("%w: event %d: %v", ErrBadTrace, i, err)
		}
		t.Events = append(t.Events, Event{
			PC:    binary.LittleEndian.Uint32(rec[0:]),
			Addr:  binary.LittleEndian.Uint32(rec[4:]),
			Flags: rec[8],
		})
	}
	return t, nil
}
