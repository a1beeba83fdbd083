package huffman

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"ccrp/internal/bitio"
)

// Errors returned by code construction and decoding.
var (
	ErrEmptyHistogram = errors.New("huffman: histogram has no symbols")
	ErrOverlongCode   = errors.New("huffman: codeword exceeds 64 bits")
	ErrBadCode        = errors.New("huffman: invalid or incomplete code")
	ErrNoCodeword     = errors.New("huffman: symbol has no codeword in this code")
)

// Code is a canonical Huffman code over byte symbols. Symbols with
// Len[s] == 0 have no codeword and cannot be encoded.
type Code struct {
	lens   [256]uint8
	bits   [256]uint64
	maxLen uint8

	// Canonical decode tables, indexed by code length 1..maxLen.
	firstCode  [65]uint64 // canonical code value of the first symbol of each length
	firstIndex [65]int    // index into symOrder of that symbol
	count      [65]int    // number of symbols of each length
	symOrder   []byte     // symbols sorted by (length, value)

	// Memoized table-driven decoder (see Multi); codes are immutable
	// after NewCode, so one decoder serves every consumer.
	multiOnce sync.Once
	multi     *MultiDecoder
}

// NewCode canonicalizes a set of code lengths into a usable Code. The
// lengths must satisfy the Kraft inequality exactly (a complete prefix
// code) unless only one symbol is present, in which case it gets the
// single codeword "0".
func NewCode(lengths [256]uint8) (*Code, error) {
	c := &Code{lens: lengths}
	var kraft uint64 // in units of 2^-64; a complete code wraps to 0 exactly once
	wraps := 0
	n := 0
	for _, l := range lengths {
		if l == 0 {
			continue
		}
		if l > 64 {
			return nil, ErrOverlongCode
		}
		n++
		add := uint64(1) << (64 - l)
		if kraft+add < kraft {
			wraps++
		}
		kraft += add
		if c.maxLen < l {
			c.maxLen = l
		}
	}
	if n == 0 {
		return nil, ErrEmptyHistogram
	}
	if n == 1 {
		// Degenerate: one symbol, one-bit code "0".
		for s, l := range lengths {
			if l != 0 {
				c.lens[s] = 1
			}
		}
		c.maxLen = 1
	} else if wraps != 1 || kraft != 0 {
		return nil, fmt.Errorf("%w: Kraft sum != 1", ErrBadCode)
	}

	// Canonical assignment: symbols ordered by (length, value).
	c.symOrder = make([]byte, 0, n)
	for s := 0; s < 256; s++ {
		if c.lens[s] > 0 {
			c.symOrder = append(c.symOrder, byte(s))
		}
	}
	sort.Slice(c.symOrder, func(i, j int) bool {
		si, sj := c.symOrder[i], c.symOrder[j]
		if c.lens[si] != c.lens[sj] {
			return c.lens[si] < c.lens[sj]
		}
		return si < sj
	})
	for _, s := range c.symOrder {
		c.count[c.lens[s]]++
	}
	var code uint64
	idx := 0
	for l := uint8(1); l <= c.maxLen; l++ {
		code <<= 1
		c.firstCode[l] = code
		c.firstIndex[l] = idx
		code += uint64(c.count[l])
		idx += c.count[l]
	}
	// Materialize per-symbol codewords.
	next := c.firstCode
	for _, s := range c.symOrder {
		l := c.lens[s]
		c.bits[s] = next[l]
		next[l]++
	}
	return c, nil
}

// MaxLen returns the longest codeword length in bits.
func (c *Code) MaxLen() int { return int(c.maxLen) }

// Len returns the codeword length of symbol s (0 if none).
func (c *Code) Len(s byte) int { return int(c.lens[s]) }

// Codeword returns the canonical codeword of s and its length in bits.
func (c *Code) Codeword(s byte) (bits uint64, n int) {
	return c.bits[s], int(c.lens[s])
}

// EncodedBits returns the exact number of bits data occupies under c, or
// an error if some byte has no codeword.
func (c *Code) EncodedBits(data []byte) (int, error) {
	total := 0
	for _, b := range data {
		l := int(c.lens[b])
		if l == 0 {
			return 0, fmt.Errorf("%w: byte %#02x", ErrNoCodeword, b)
		}
		total += l
	}
	return total, nil
}

// Encode appends the codewords for data to w.
func (c *Code) Encode(w *bitio.Writer, data []byte) error {
	for _, b := range data {
		l := c.lens[b]
		if l == 0 {
			return fmt.Errorf("%w: byte %#02x", ErrNoCodeword, b)
		}
		w.WriteBits(c.bits[b], uint(l))
	}
	return nil
}

// EncodeToBytes encodes data and returns the zero-padded byte buffer.
func (c *Code) EncodeToBytes(data []byte) ([]byte, error) {
	var w bitio.Writer
	if err := c.Encode(&w, data); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// DecodeSymbol decodes one symbol from r using bit-serial canonical
// decoding — the software twin of the paper's shift-register decoder.
// The canonical Decode/DecodeBytes/DecodeSymbol are the oracle the
// production MultiDecoder (see Multi) is proven against.
func (c *Code) DecodeSymbol(r *bitio.Reader) (byte, error) {
	var code uint64
	for l := uint8(1); l <= c.maxLen; l++ {
		bit, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | uint64(bit)
		if d := code - c.firstCode[l]; code >= c.firstCode[l] && d < uint64(c.count[l]) {
			return c.symOrder[c.firstIndex[l]+int(d)], nil
		}
	}
	return 0, ErrBadCode
}

// Decode fills out with len(out) decoded symbols read from r.
func (c *Code) Decode(r *bitio.Reader, out []byte) error {
	for i := range out {
		s, err := c.DecodeSymbol(r)
		if err != nil {
			return fmt.Errorf("huffman: decoding symbol %d: %w", i, err)
		}
		out[i] = s
	}
	return nil
}

// DecodeBytes decodes exactly n symbols from the (zero-padded) buffer p.
func (c *Code) DecodeBytes(p []byte, n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: negative output length %d", ErrBadCode, n)
	}
	out := make([]byte, n)
	if err := c.Decode(bitio.NewReader(p), out); err != nil {
		return nil, err
	}
	return out, nil
}

// Lengths returns a copy of the 256 code lengths.
func (c *Code) Lengths() [256]uint8 { return c.lens }

// TableBits returns the size in bits of the serialized code table that a
// program using this code must carry (MarshalBinary's output). A
// preselected code is hardwired in the decoder, so its table costs nothing
// at run time; callers account for that distinction.
func (c *Code) TableBits() int { return 256 * tableEntryBits(c.maxLen) }

func tableEntryBits(maxLen uint8) int {
	// Lengths 0..maxLen need enough bits to store maxLen distinct values
	// plus "absent". 16-bit-bounded codes fit in 5 bits per entry;
	// traditional codes may need up to 7 (or 8 for the pathological case).
	bits := 1
	for (1 << bits) <= int(maxLen) {
		bits++
	}
	return bits
}

// MarshalBinary serializes the code as 256 fixed-width length fields.
func (c *Code) MarshalBinary() ([]byte, error) {
	var w bitio.Writer
	width := uint(tableEntryBits(c.maxLen))
	w.WriteBits(uint64(c.maxLen), 8)
	for _, l := range c.lens {
		w.WriteBits(uint64(l), width)
	}
	return w.Bytes(), nil
}

// UnmarshalCode reconstructs a Code serialized by MarshalBinary.
func UnmarshalCode(p []byte) (*Code, error) {
	r := bitio.NewReader(p)
	maxLen, err := r.ReadBits(8)
	if err != nil {
		return nil, err
	}
	if maxLen == 0 || maxLen > 64 {
		return nil, ErrBadCode
	}
	width := uint(tableEntryBits(uint8(maxLen)))
	var lens [256]uint8
	for i := range lens {
		v, err := r.ReadBits(width)
		if err != nil {
			return nil, err
		}
		lens[i] = uint8(v)
	}
	return NewCode(lens)
}
