package core

import (
	"fmt"

	"ccrp/internal/bitio"
	"ccrp/internal/huffman"
)

// LineCodec is one code a ROM line can be stored under. BuildROM resolves
// its Options into a list of them, the paper's byte-Huffman codes
// (NewHuffmanCodec) or one successor scheme such as the CodePack-style
// coder in internal/codepack, and sizes, encodes, decodes and prices
// every line through that list; raw-block bypass, the code-select tags
// and the LAT stay in core.
type LineCodec interface {
	// Name identifies the codec in reports.
	Name() string
	// BitLengths attributes the encoded bits of a LineSize-byte line to
	// its output bytes, for the refill engine's streaming model; their
	// sum is the line's encoded size. It returns huffman.ErrNoCodeword
	// when the codec cannot represent the line, which BuildROM then
	// stores under another codec or raw. The lengths come back by value:
	// a buffer handed to an interface method escapes to the heap, and
	// pricing a refill must not allocate.
	BitLengths(line []byte) ([LineSize]uint8, error)
	// AppendLine compresses one cache line, appends it to dst and
	// returns the extended slice, as append does, in no more bytes than
	// its BitLengths sum to. BuildROM hands it the block region with
	// room for exactly those bytes, so the line lands in its slot.
	AppendLine(dst, line []byte) ([]byte, error)
	// DecodeLineInto expands a compressed line into dst (len(dst)
	// bytes), which the caller owns, so the decode path stays off the
	// heap.
	DecodeLineInto(dst, comp []byte) error
}

// HuffmanCodec is a byte-Huffman code as a LineCodec, the paper's scheme:
// each byte of a line is coded by its own codeword.
type HuffmanCodec struct {
	code *huffman.Code
}

// NewHuffmanCodec wraps a byte-oriented Huffman code as a LineCodec.
func NewHuffmanCodec(code *huffman.Code) LineCodec { return HuffmanCodec{code: code} }

// Code returns the wrapped Huffman code.
func (h HuffmanCodec) Code() *huffman.Code { return h.code }

func (h HuffmanCodec) Name() string { return "byte-huffman" }

func (h HuffmanCodec) BitLengths(line []byte) (lens [LineSize]uint8, err error) {
	if len(line) != LineSize {
		return lens, fmt.Errorf("core: line of %d bytes, want %d", len(line), LineSize)
	}
	for i, b := range line {
		l := h.code.Len(b)
		if l == 0 {
			return lens, huffman.ErrNoCodeword
		}
		lens[i] = uint8(l)
	}
	return lens, nil
}

func (h HuffmanCodec) AppendLine(dst, line []byte) ([]byte, error) {
	w := bitio.NewWriter(dst)
	if err := h.code.Encode(w, line); err != nil {
		return dst, err
	}
	return w.Bytes(), nil
}

// DecodeLineInto expands through the code's memoized multi-symbol
// decoder (huffman.Code.Multi), proven byte-identical to the canonical
// one.
func (h HuffmanCodec) DecodeLineInto(dst, comp []byte) error {
	return h.code.Multi().DecodeInto(dst, comp)
}
