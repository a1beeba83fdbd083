package core

import (
	"fmt"

	"ccrp/internal/memory"
)

// DecodeBytesPerCycle is the paper's decoder rate: one byte decoded on
// each clock edge, two per processor cycle.
const DecodeBytesPerCycle = 2

// RefillEngine models the cache refill datapath: compressed words stream
// in from instruction memory while the Huffman decoder drains them at
// Rate bytes per cycle (the paper's decoder does 2, one per clock edge),
// stalling whenever the bits for the next output byte have not arrived.
type RefillEngine struct {
	Mem memory.Model
	// Rate is the decoded bytes per cycle; 0 means DecodeBytesPerCycle.
	// It must not be negative: Price rejects such a Config with
	// ErrDecodeRate.
	Rate int
}

func (e RefillEngine) rate() int {
	if e.Rate == 0 {
		return DecodeBytesPerCycle
	}
	return e.Rate
}

// RawLineCycles is the refill time of an uncompressed (bypass) block,
// identical to a standard processor's line refill: a burst of
// lineBytes/4 words.
func (e RefillEngine) RawLineCycles(lineBytes int) uint64 {
	return e.Mem.BurstCycles(lineBytes / 4)
}

// CompressedLineCycles is the refill time of a compressed block.
// bitLens[k] is the encoded length of output byte k; storedBytes is the
// block's stored size (word-rounded when the image is word aligned), and
// must be in [1, LineSize], as every compressed block's is.
//
// The model works in decode ticks of 1/Rate cycle: output byte k
// completes one tick after both (a) the previous byte and (b) the memory
// word containing bit position cum(k) have arrived. At the paper's 2
// bytes/cycle the minimum for a 32-byte line is therefore 16 cycles plus
// the first word's access time, as in §3.4.
//
// The block is stored in at most 8 words, so their arrival times are
// asked of the memory once each, into a stack array, not once per output
// byte.
func (e RefillEngine) CompressedLineCycles(bitLens []uint8, storedBytes int) uint64 {
	rate := uint64(e.rate())
	words := (storedBytes + 3) / 4
	var arrive [LineSize / 4]uint64 // in ticks
	for w := range words {
		arrive[w] = rate * e.Mem.WordArrival(w)
	}
	cum := 0
	var t uint64 // ticks of 1/rate cycle
	for _, n := range bitLens {
		cum += int(n)
		wordIdx := min((cum-1)/32, words-1) // padding bits live in the last stored word
		t = max(t, arrive[wordIdx]) + 1     // the decode tick itself
	}
	return (t + rate - 1) / rate
}

// LineCycles dispatches on the block kind and returns the refill time of
// ROM line i, excluding CLB effects and post-burst recovery. The kind
// and stored size are the line's LAT length; a compressed line streams
// by the bit lengths of the codec that coded it, and is priced without
// allocating.
func (e RefillEngine) LineCycles(r *ROM, i int) uint64 {
	stored := r.storedLen(i)
	if r.Raw(i) {
		return e.RawLineCycles(stored)
	}
	lens, err := r.codecs[r.Lines[i].CodeIdx].BitLengths(r.orig(i))
	if err != nil {
		// BuildROM sized the line from these lengths, so only a codec
		// that changes its answer gets here; pricing the refill at zero
		// cycles would hide it.
		panic(fmt.Sprintf("core: line %d: codec BitLengths failed after BuildROM accepted it: %v", i, err))
	}
	return e.CompressedLineCycles(lens[:], stored)
}

// LATFetchCycles is the CLB refill penalty: reading one 8-byte LAT entry
// (a two-word sequential access) plus one cycle in the CLB's address
// computation unit.
func (e RefillEngine) LATFetchCycles() uint64 {
	return e.Mem.BurstCycles(2) + 1
}

// LineTrafficBytes returns the bus traffic a CCRP refill of line i causes:
// whole words, since the bus performs word accesses even for byte-aligned
// blocks (§4.1).
func LineTrafficBytes(r *ROM, i int) uint64 {
	return uint64((r.storedLen(i) + 3) / 4 * 4)
}

// tariff is what each refill costs under one configuration's memory
// model, decode rate and overlap window: post-burst recovery is added to
// every refill, and the cycles the pipeline overlaps are taken off a
// line refill, down to zero. A line's charge depends only on the line
// and these parameters, never on the trace, just as the LAT fixes every
// line's length when the ROM is built.
type tariff struct {
	engine   RefillEngine
	post     uint64 // post-burst recovery cycles
	overlap  uint64 // cycles of each line refill the pipeline hides
	std      uint64 // a standard processor's line refill
	latFetch uint64 // a LAT entry read on a CLB miss
}

func newTariff(cfg Config) tariff {
	t := tariff{
		engine:  RefillEngine{Mem: cfg.Mem, Rate: cfg.DecodeRate},
		post:    cfg.Mem.PostBurstCycles(),
		overlap: cfg.OverlapCycles,
	}
	t.std = t.charge(t.engine.RawLineCycles(LineSize))
	t.latFetch = t.engine.LATFetchCycles() + t.post
	return t
}

// charge is what a miss pays for a line refill of the given time.
func (t tariff) charge(refill uint64) uint64 {
	refill += t.post
	return refill - min(t.overlap, refill)
}

// line is the CCRP's charge for a refill of ROM line li.
func (t tariff) line(r *ROM, li int) uint64 { return t.charge(t.engine.LineCycles(r, li)) }
