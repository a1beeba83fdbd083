package core

import (
	"ccrp/internal/huffman"
)

// LineCodec abstracts the per-line compression scheme so the same ROM
// builder, refill engine, and system simulator can run the paper's
// byte-Huffman scheme or any successor (e.g. the CodePack-style coder in
// internal/codepack). Raw-block bypass and LAT handling stay in core.
type LineCodec interface {
	// Name identifies the codec in reports.
	Name() string
	// EncodeLine compresses one cache line.
	EncodeLine(line []byte) ([]byte, error)
	// DecodeLineInto expands a compressed line into dst (len(dst)
	// bytes), which the caller owns, so the decode path stays off the
	// heap.
	DecodeLineInto(dst, comp []byte) error
	// EncodedBits returns the exact compressed size of line in bits.
	EncodedBits(line []byte) (int, error)
	// BitLengths attributes encoded bits to output bytes for the
	// streaming refill model.
	BitLengths(line []byte) ([]int, error)
}

// huffmanLineCodec adapts a byte-Huffman code to the LineCodec interface.
type huffmanLineCodec struct {
	code *huffman.Code
}

// NewHuffmanCodec wraps a byte-oriented Huffman code as a LineCodec.
func NewHuffmanCodec(code *huffman.Code) LineCodec {
	return &huffmanLineCodec{code: code}
}

func (h *huffmanLineCodec) Name() string { return "byte-huffman" }

func (h *huffmanLineCodec) EncodeLine(line []byte) ([]byte, error) {
	return h.code.EncodeToBytes(line)
}

func (h *huffmanLineCodec) DecodeLineInto(dst, comp []byte) error {
	return h.code.Multi().DecodeInto(dst, comp)
}

func (h *huffmanLineCodec) EncodedBits(line []byte) (int, error) {
	return h.code.EncodedBits(line)
}

func (h *huffmanLineCodec) BitLengths(line []byte) ([]int, error) {
	lens := make([]int, len(line))
	for i, b := range line {
		l := h.code.Len(b)
		if l == 0 {
			return nil, huffman.ErrNoCodeword
		}
		lens[i] = l
	}
	return lens, nil
}
