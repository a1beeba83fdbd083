// Package lzw implements an LZW compressor in the style of the Unix
// compress(1) utility [Welch84]. The paper uses compress as the reference
// point for its Figure 5 comparison: it is very effective on whole program
// files, but being a beginning-to-end adaptive method it cannot be used
// for per-cache-line decompression, which is why the CCRP falls back to
// block-oriented Huffman codes.
//
// Codes begin at 9 bits and grow to maxBits (compress's default 16); a
// CLEAR code resets the dictionary when it fills, mimicking block mode.
package lzw

import (
	"errors"
	"fmt"

	"ccrp/internal/bitio"
)

const (
	clearCode = 256 // emitted to reset the dictionary
	eofCode   = 257 // emitted once at end of stream
	firstFree = 258
	minBits   = 9
)

// ErrCorrupt is returned when a compressed stream is malformed.
var ErrCorrupt = errors.New("lzw: corrupt stream")

// MaxBitsDefault matches compress(1)'s default -b 16.
const MaxBitsDefault = 16

// Compress encodes data with LZW codes growing from 9 up to maxBits bits.
func Compress(data []byte, maxBits int) ([]byte, error) {
	if maxBits < minBits || maxBits > 24 {
		return nil, fmt.Errorf("lzw: maxBits %d out of range [%d,24]", maxBits, minBits)
	}
	var w bitio.Writer
	// dict maps a string one byte longer than a known one to its code,
	// keyed by the known string's code and the byte: code<<8 | byte. The
	// 256 one-byte strings are implicit, each its own byte value.
	dict := make(map[uint32]int, 1<<12)
	next := firstFree
	width := uint(minBits)
	emit := func(code int) {
		w.WriteBits(uint64(code), width)
	}
	cur := -1 // the code of the string matched so far; -1 before the first byte
	for _, b := range data {
		if cur < 0 {
			cur = int(b)
			continue
		}
		key := uint32(cur)<<8 | uint32(b)
		if code, ok := dict[key]; ok {
			cur = code
			continue
		}
		emit(cur)
		if next < 1<<maxBits {
			dict[key] = next
			next++
			if next > 1<<width && width < uint(maxBits) {
				width++
			}
		} else {
			emit(clearCode)
			clear(dict)
			next = firstFree
			width = minBits
		}
		cur = int(b)
	}
	if cur >= 0 {
		emit(cur)
		// The decoder adds its entry for this code only on reading it,
		// one step behind the encoder, and may widen there; write the
		// end code at the width it will read.
		if next < 1<<maxBits {
			next++
			if next > 1<<width && width < uint(maxBits) {
				width++
			}
		}
	}
	emit(eofCode)
	return w.Bytes(), nil
}

// Decompress decodes a stream produced by Compress with the same maxBits.
func Decompress(comp []byte, maxBits int) ([]byte, error) {
	if maxBits < minBits || maxBits > 24 {
		return nil, fmt.Errorf("lzw: maxBits %d out of range [%d,24]", maxBits, minBits)
	}
	r := bitio.NewReader(comp)
	table := make([][]byte, firstFree, 1<<12)
	reset := func() {
		table = table[:firstFree]
		for i := 0; i < 256; i++ {
			table[i] = []byte{byte(i)}
		}
	}
	reset()
	width := uint(minBits)
	var out []byte
	var prev []byte
	for {
		codeU, err := r.ReadBits(width)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated", ErrCorrupt)
		}
		code := int(codeU)
		switch {
		case code == eofCode:
			return out, nil
		case code == clearCode:
			reset()
			width = minBits
			prev = nil
			continue
		case code < len(table) && table[code] != nil:
			seq := table[code]
			out = append(out, seq...)
			if prev != nil && len(table) < 1<<maxBits {
				ent := make([]byte, 0, len(prev)+1)
				ent = append(ent, prev...)
				ent = append(ent, seq[0])
				table = append(table, ent)
			}
			prev = seq
		case code == len(table) && prev != nil:
			// The KwKwK special case.
			ent := make([]byte, 0, len(prev)+1)
			ent = append(ent, prev...)
			ent = append(ent, prev[0])
			out = append(out, ent...)
			if len(table) < 1<<maxBits {
				table = append(table, ent)
			}
			prev = ent
		default:
			return nil, fmt.Errorf("%w: code %d out of range", ErrCorrupt, code)
		}
		if len(table)+1 > 1<<width && width < uint(maxBits) {
			width++
		}
	}
}

// Ratio compresses data and returns compressedSize/originalSize. It is the
// Figure 5 "Unix compress" reference column.
func Ratio(data []byte, maxBits int) (float64, error) {
	if len(data) == 0 {
		return 1, nil
	}
	c, err := Compress(data, maxBits)
	if err != nil {
		return 0, err
	}
	return float64(len(c)) / float64(len(data)), nil
}
