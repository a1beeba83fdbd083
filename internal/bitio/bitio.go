// Package bitio provides MSB-first bit-level readers and writers.
//
// All variable-length coders in this repository (Huffman, LZW, the LAT
// length fields) serialize through this package so that bit order is
// defined in exactly one place: within a byte, bits are produced and
// consumed most-significant first, matching the left-to-right order in
// which a hardware shift-register decoder would see a compressed
// instruction stream.
package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrShortStream is returned when a read requires bits beyond the end of
// the underlying buffer.
var ErrShortStream = errors.New("bitio: read past end of stream")

// Writer accumulates bits MSB-first into an in-memory buffer. Bits
// collect in a 64-bit accumulator and reach the buffer eight bytes at a
// time, so a write costs a few shifts, not a loop over its bits.
//
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	acc  uint64 // pending bits, left-aligned: the oldest is bit 63
	nAcc uint   // number of pending bits in acc (0..63)
}

// NewWriter returns a Writer that appends to dst: Bytes returns dst
// extended by the written bits, in dst's own array while its capacity
// lasts, so an encoder can write into a caller's buffer without
// allocating.
func NewWriter(dst []byte) *Writer { return &Writer{buf: dst} }

// WriteBits appends the low n bits of v, most significant of those n first.
// n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic(fmt.Sprintf("bitio: WriteBits width %d out of range", n))
	}
	v <<= 64 - n // left-align the n bits; for n = 0 this leaves nothing
	w.acc |= v >> w.nAcc
	if w.nAcc+n < 64 {
		w.nAcc += n
		return
	}
	// The accumulator is full: emit it and keep the bits of v that did
	// not fit (none when nAcc was 0, as Go shifts a uint64 by 64 to 0).
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc)
	w.acc = v << (64 - w.nAcc)
	w.nAcc = w.nAcc + n - 64
}

// Len returns the number of bits written so far, counting a NewWriter's
// dst as written.
func (w *Writer) Len() int { return len(w.buf)*8 + int(w.nAcc) }

// Bytes flushes the pending bits (the last byte zero-padded on the right)
// and returns the accumulated buffer, without copying it. The writer remains usable;
// further writes continue from the unpadded bit position and may
// overwrite the padded tail of a slice Bytes returned, so call Bytes only
// when finished.
func (w *Writer) Bytes() []byte {
	out := w.buf
	for i := uint(0); i < w.nAcc; i += 8 {
		out = append(out, byte(w.acc>>(56-i)))
	}
	return out
}

// Reset discards all written bits.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.acc, w.nAcc = 0, 0
}

// Reader consumes bits MSB-first from a byte slice.
type Reader struct {
	buf []byte
	pos int // bit position from the start of buf
}

// NewReader returns a Reader over p. The Reader does not copy p.
func NewReader(p []byte) *Reader { return &Reader{buf: p} }

// ReadBits reads n bits (n in [0,64]) and returns them right-aligned.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		panic(fmt.Sprintf("bitio: ReadBits width %d out of range", n))
	}
	if r.pos+int(n) > len(r.buf)*8 {
		return 0, ErrShortStream
	}
	v := extract(r.buf, r.pos, n)
	r.pos += int(n)
	return v, nil
}

// extract reads n in-bounds bits starting at bit position pos, whole
// bytes at a time (the MSB-first twin of a shift-register's parallel
// load). Callers guarantee pos+n <= len(buf)*8.
func extract(buf []byte, pos int, n uint) uint64 {
	var v uint64
	for n > 0 {
		b := buf[pos>>3]
		off := uint(pos & 7)
		avail := 8 - off
		take := avail
		if take > n {
			take = n
		}
		v = v<<take | uint64(b>>(avail-take))&(1<<take-1)
		pos += int(take)
		n -= take
	}
	return v
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (byte, error) {
	v, err := r.ReadBits(1)
	return byte(v), err
}

// PeekBits returns the next n bits without consuming them. If fewer than n
// bits remain, the missing low-order bits read as zero and ok reports how
// many real bits were available.
func (r *Reader) PeekBits(n uint) (v uint64, avail uint) {
	rem := uint(len(r.buf)*8 - r.pos)
	take := n
	if rem < take {
		take = rem
	}
	return extract(r.buf, r.pos, take) << (n - take), take
}

// Skip advances the read position by n bits.
func (r *Reader) Skip(n uint) error {
	if r.pos+int(n) > len(r.buf)*8 {
		return ErrShortStream
	}
	r.pos += int(n)
	return nil
}

// Pos returns the current bit offset from the start of the stream.
func (r *Reader) Pos() int { return r.pos }

// Reset points the Reader at p with the position rewound to bit 0,
// reusing the Reader value. Hot paths that decode many small streams
// (e.g. per-line codec decodes) keep one stack Reader and Reset it
// instead of allocating with NewReader.
func (r *Reader) Reset(p []byte) {
	r.buf = p
	r.pos = 0
}

// Data returns the underlying buffer (not a copy). Together with Pos and
// Skip it lets table-driven decoders run their hot loop directly over
// the bytes while keeping the Reader's position authoritative.
func (r *Reader) Data() []byte { return r.buf }
