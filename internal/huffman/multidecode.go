package huffman

import (
	"encoding/binary"
	"fmt"

	"ccrp/internal/bitio"
)

// MultiDecoder is the multi-symbol table-driven decoder: the zstd/FSE
// generation of the paper's §3.4 mapping-ROM idea. Where the hardware
// mapping ROM maps a 16-bit window to one (symbol, length) pair, a
// MultiDecoder entry carries *every* complete codeword that fits in the
// window — up to MaxPack symbols — so one table lookup emits one, two,
// or three decoded bytes at once. With the corpus-shaped codes this
// repository trains (≈5–6 bits per byte of machine code), a 12-bit
// window packs two symbols on average, halving the lookups per line.
//
// The bit refill is word-at-a-time: instead of assembling windows a byte
// at a time (extractPad's loop in earlier revisions), the decoder loads
// 64 bits from the stream in one 8-byte read per table step (peek64),
// which is what makes the bigger entries pay off.
//
// MultiDecoder is API-compatible with Code.Decode/DecodeBytes/
// DecodeSymbol and decodes byte-identically: same symbols, same bit
// positions, and matching error classes (bitio.ErrShortStream on
// truncation inside a codeword, ErrBadCode on unreachable codespace) —
// properties pinned by differential tests and fuzzing against the
// canonical decoder and the hardware models in internal/decoder.
type MultiDecoder struct {
	// table is the flattened arena: the root table occupies
	// [0, 1<<rootBits); overflow sub-tables for codewords longer than
	// the root window are appended behind it and addressed by
	// entry-encoded offsets.
	table    []uint64
	rootBits uint
}

// codeword is one symbol's canonical codeword, the unit the overflow
// sub-table builder groups by shared prefix.
type codeword struct {
	bits uint64
	len  uint8
	sym  byte
}

// MultiChunkBits is the default root window width. 12 keeps the root
// table at 4096 eight-byte entries — 32 KiB, cache-resident — while
// packing ~2 symbols per lookup on corpus-shaped codes.
const MultiChunkBits = 12

// MaxPack is the most symbols one root-table entry can carry.
const MaxPack = 3

// Entry encoding (uint64):
//
//	bits 62..63  kind: 0 invalid, 1 leaf, 2 sub-table pointer
//	leaf:        bits 59..60 = symbol count k (1..MaxPack)
//	             bits 48..53 = total bits consumed by the whole pack
//	             bits 24..29 = bits consumed by the first symbol alone
//	             bits 8j..8j+7 = symbol j
//	pointer:     bits 56..61 = sub-table index width, bits 0..31 = arena offset
//
// The duplicated first-symbol length (bits 24..29) is what lets the
// single-symbol slow path (decodeOne, DecodeSymbol, stream tails) peel
// exactly one codeword off a packed entry; the hot loop reads only the
// count and the total. Sub-table leaves carry exactly one symbol, so
// both length fields coincide there.
const (
	mEntInvalid = 0
	mEntLeaf    = 1
	mEntPtr     = 2
)

// NewMultiDecoder compiles code into its multi-symbol form with the
// default root window.
func NewMultiDecoder(code *Code) *MultiDecoder {
	return NewMultiDecoderChunk(code, MultiChunkBits)
}

// NewMultiDecoderChunk compiles code with an explicit root window width
// in [1, 16]. Wider windows pack more symbols per entry at 2^width
// eight-byte entries of table cost; 16 is the multi-symbol analogue of
// the paper's full 64K-entry mapping ROM.
func NewMultiDecoderChunk(code *Code, chunk int) *MultiDecoder {
	if chunk < 1 || chunk > 16 {
		panic(fmt.Sprintf("huffman: multi-decoder chunk %d outside [1,16]", chunk))
	}
	m := &MultiDecoder{rootBits: uint(chunk)}
	m.table = make([]uint64, 1<<uint(chunk))

	// Root leaves: for every possible window, greedily decode complete
	// codewords from its bits until the window runs dry or the entry is
	// full. This enumerates short-codeword *sequences* at build time so
	// the hot loop gets them in one lookup.
	for w := range m.table {
		var e uint64
		pos, k := uint(0), 0
		for k < MaxPack {
			sym, l, ok := code.decodeWindow(uint64(w), uint(chunk), pos)
			if !ok {
				break
			}
			pos += l
			if k == 0 {
				e |= uint64(pos) << 24 // first symbol's own length
			}
			e |= uint64(sym) << (8 * k)
			k++
		}
		if k > 0 {
			m.table[w] = mEntLeaf<<62 | uint64(k)<<59 | uint64(pos)<<48 | e
		}
	}

	// Overflow: codewords longer than the root window chain through
	// compact single-symbol sub-tables, grouped by their first chunk
	// bits (whose root entries are necessarily non-leaf: a complete
	// shorter codeword inside a longer one would break the prefix
	// property).
	overflow := map[uint64][]codeword{}
	for s := 0; s < 256; s++ {
		bits, n := code.Codeword(byte(s))
		if n == 0 || uint(n) <= uint(chunk) {
			continue
		}
		prefix := bits >> (uint(n) - uint(chunk))
		overflow[prefix] = append(overflow[prefix],
			codeword{bits: bits, len: uint8(n), sym: byte(s)})
	}
	for prefix, group := range overflow {
		subOff, subBits := m.buildSub(group, uint(chunk), uint(chunk))
		m.table[prefix] = mEntPtr<<62 | uint64(subBits)<<56 | uint64(subOff)
	}
	return m
}

// decodeWindow canonically decodes one symbol from the width-bit window
// w starting at bit offset pos (MSB-first), reporting false when no
// codeword completes within the window.
func (c *Code) decodeWindow(w uint64, width, pos uint) (byte, uint, bool) {
	var code uint64
	for l := uint(1); l <= uint(c.maxLen) && pos+l <= width; l++ {
		code = code<<1 | (w>>(width-pos-l))&1
		if d := code - c.firstCode[l]; code >= c.firstCode[l] && d < uint64(c.count[l]) {
			return c.symOrder[c.firstIndex[l]+int(d)], l, true
		}
	}
	return 0, 0, false
}

// buildSub lays out one overflow sub-table for the codewords in cws (all
// sharing their first `consumed` bits), returning its arena offset and
// index width. Sub-table leaves carry one symbol each; longer codewords
// recurse into further sub-tables appended behind this one (so a
// table's offset is captured on entry, not derived from the arena
// length after recursion).
func (m *MultiDecoder) buildSub(cws []codeword, consumed, chunk uint) (int, uint) {
	maxRem := uint(0)
	for _, w := range cws {
		if rem := uint(w.len) - consumed; rem > maxRem {
			maxRem = rem
		}
	}
	tblBits := maxRem
	if tblBits > chunk {
		tblBits = chunk
	}
	off := len(m.table)
	m.table = append(m.table, make([]uint64, 1<<tblBits)...)
	if off > 0xFFFFFFFF {
		// Unreachable for byte alphabets; guard the 32-bit offset field.
		panic("huffman: multi-decoder table arena overflow")
	}

	overflow := map[uint64][]codeword{}
	for _, w := range cws {
		rem := uint(w.len) - consumed
		suffix := w.bits & (1<<rem - 1)
		if rem <= tblBits {
			e := mEntLeaf<<62 | uint64(1)<<59 | uint64(rem)<<24 | uint64(w.sym)
			base := suffix << (tblBits - rem)
			for i := uint64(0); i < 1<<(tblBits-rem); i++ {
				m.table[off+int(base+i)] = e
			}
			continue
		}
		prefix := suffix >> (rem - tblBits)
		overflow[prefix] = append(overflow[prefix], w)
	}
	for prefix, group := range overflow {
		subOff, subBits := m.buildSub(group, consumed+tblBits, chunk)
		m.table[off+int(prefix)] = mEntPtr<<62 | uint64(subBits)<<56 | uint64(subOff)
	}
	return off, tblBits
}

// peek64 returns the 64 bits starting at bit position pos, left-aligned
// and zero-padded past the end of buf: the word-at-a-time refill. In the
// stream interior this is a single 8-byte load plus a shift; only the
// last seven bytes of a stream fall back to byte assembly.
func peek64(buf []byte, pos int) uint64 {
	b := pos >> 3
	if b+8 <= len(buf) {
		return binary.BigEndian.Uint64(buf[b:]) << uint(pos&7)
	}
	var w uint64
	s := uint(56)
	for ; b < len(buf); b++ {
		w |= uint64(buf[b]) << s
		s -= 8
	}
	return w << uint(pos&7)
}

// decodeOne decodes one symbol from buf starting at bit position pos —
// the single-symbol slow path used for overflow chains, stream tails,
// and DecodeSymbol. total is len(buf)*8. It returns the symbol and the
// bits consumed, with error classes identical to the canonical decoder.
func (m *MultiDecoder) decodeOne(buf []byte, pos, total int) (byte, int, error) {
	off := uint64(0)
	bits := m.rootBits
	consumed := 0
	for {
		rem := total - (pos + consumed)
		e := m.table[off+peek64(buf, pos+consumed)>>(64-bits)]
		switch e >> 62 {
		case mEntLeaf:
			l := int(e>>24) & 63 // first symbol's bits at this step
			if l > rem {
				// The stream ends inside this codeword: the canonical
				// bit-serial decoder runs out of bits here too.
				return 0, 0, bitio.ErrShortStream
			}
			return byte(e), consumed + l, nil
		case mEntPtr:
			if rem <= int(bits) {
				// Every codeword reachable through this pointer needs
				// more bits than the stream has left.
				return 0, 0, bitio.ErrShortStream
			}
			consumed += int(bits)
			off = e & 0xFFFFFFFF
			bits = uint(e>>56) & 63
		default:
			if rem == 0 {
				return 0, 0, bitio.ErrShortStream
			}
			// Unreachable codespace — only possible for the degenerate
			// one-symbol code, where the canonical decoder also rejects.
			return 0, 0, ErrBadCode
		}
	}
}

// decode fills out with symbols decoded from buf starting at bit
// position pos, returning the final bit position. The hot loop takes one
// word-sized load and one table lookup per *entry* — up to MaxPack
// symbols — and stores all three pack bytes unconditionally while
// advancing by the real count, so a 1- or 2-symbol entry's junk bytes
// are overwritten on the next iteration. Stream and output tails (where
// the over-store or a padded window could misbehave) drop to the
// single-symbol slow path, which carries the canonical error semantics.
func (m *MultiDecoder) decode(buf []byte, pos int, out []byte) (int, error) {
	total := len(buf) * 8
	shift := 64 - m.rootBits
	chunk := int(m.rootBits)
	// Full slice expression: len(root) is a power of two, so the mask
	// below proves the index in range and eliminates the bounds check.
	root := m.table[: 1<<m.rootBits : 1<<m.rootBits]
	i := 0
	for i+MaxPack <= len(out) && pos+chunk <= total {
		// Word-at-a-time refill, inlined: one 8-byte big-endian load in
		// the stream interior (peek64's loop only for the last 7 bytes).
		b := pos >> 3
		var w uint64
		if b+8 <= len(buf) {
			w = binary.BigEndian.Uint64(buf[b:]) << uint(pos&7)
		} else {
			w = peek64(buf, pos)
		}
		e := root[(w>>shift)&uint64(len(root)-1)]
		if e>>62 != mEntLeaf {
			// Overflow chain (or unreachable codespace): one symbol the
			// slow way. The window is all real bits here, so any error is
			// genuine, not an artifact of padding.
			sym, adv, err := m.decodeOne(buf, pos, total)
			if err != nil {
				return pos, fmt.Errorf("huffman: decoding symbol %d: %w", i, err)
			}
			out[i] = sym
			i++
			pos += adv
			continue
		}
		out[i] = byte(e)
		out[i+1] = byte(e >> 8)
		out[i+2] = byte(e >> 16)
		i += int(e>>59) & 3
		pos += int(e>>48) & 63
	}
	// Tail: fewer than MaxPack output slots left, or within one window of
	// the stream end. One codeword at a time, canonical error classes.
	for i < len(out) {
		sym, adv, err := m.decodeOne(buf, pos, total)
		if err != nil {
			return pos, fmt.Errorf("huffman: decoding symbol %d: %w", i, err)
		}
		out[i] = sym
		i++
		pos += adv
	}
	return pos, nil
}

// DecodeSymbol decodes one symbol from r — Code.DecodeSymbol's
// multi-kernel twin. It always consumes exactly one codeword, so it
// interleaves with raw ReadBits exactly like the canonical decoder.
func (m *MultiDecoder) DecodeSymbol(r *bitio.Reader) (byte, error) {
	buf := r.Data()
	sym, adv, err := m.decodeOne(buf, r.Pos(), len(buf)*8)
	if err != nil {
		return 0, err
	}
	if err := r.Skip(uint(adv)); err != nil {
		return 0, err
	}
	return sym, nil
}

// Decode fills out with len(out) decoded symbols read from r, leaving r
// at exactly the bit position the canonical decoder would.
func (m *MultiDecoder) Decode(r *bitio.Reader, out []byte) error {
	buf := r.Data()
	end, err := m.decode(buf, r.Pos(), out)
	if skipErr := r.Skip(uint(end - r.Pos())); skipErr != nil {
		return skipErr
	}
	return err
}

// DecodeInto decodes exactly len(dst) symbols from the (zero-padded)
// buffer p into dst. This is the zero-allocation hot path: no reader, no
// output buffer, nothing escapes — pinned by TestDecodeIntoZeroAlloc.
func (m *MultiDecoder) DecodeInto(dst, p []byte) error {
	_, err := m.decode(p, 0, dst)
	return err
}

// DecodeBytes decodes exactly n symbols from the (zero-padded) buffer p.
func (m *MultiDecoder) DecodeBytes(p []byte, n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: negative output length %d", ErrBadCode, n)
	}
	out := make([]byte, n)
	if _, err := m.decode(p, 0, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Multi returns the memoized multi-symbol decoder for this code, built
// on first use. Codes are immutable, so the decoder is shared freely
// across goroutines.
func (c *Code) Multi() *MultiDecoder {
	c.multiOnce.Do(func() { c.multi = NewMultiDecoder(c) })
	return c.multi
}
