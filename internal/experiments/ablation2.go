package experiments

import (
	"fmt"
	"io"

	"ccrp/internal/core"
	"ccrp/internal/decoder"
	"ccrp/internal/memory"
	"ccrp/internal/workload"
)

// AssocRow measures cache associativity for one configuration — the §4.3
// remark that espresso's access patterns "are not well suited to a small
// direct mapped cache and ... different parameters [could be] chosen for
// this program", made concrete.
type AssocRow struct {
	CacheBytes int
	Ways       int
	MissRate   float64
	RelPerf    float64 // under EPROM
}

// AssociativityAblation sweeps 1/2/4-way caches for a program on EPROM.
func AssociativityAblation(program string) ([]AssocRow, error) {
	w, ok := workload.ByName(program)
	if !ok {
		return nil, errUnknown(program)
	}
	rom, err := preselROM(w)
	if err != nil {
		return nil, err
	}
	var rows []AssocRow
	for _, cs := range []int{256, 512, 1024} {
		for _, ways := range []int{1, 2, 4} {
			prof, err := missProfile(w, cs, ways, 16)
			if err != nil {
				return nil, err
			}
			cmp, err := core.Price(prof, rom, core.Config{Mem: memory.EPROM{}})
			if err != nil {
				return nil, err
			}
			rows = append(rows, AssocRow{
				CacheBytes: cs,
				Ways:       ways,
				MissRate:   cmp.MissRate(),
				RelPerf:    cmp.RelativePerformance(),
			})
		}
	}
	return rows, nil
}

// RateRow measures the decoder-speed sensitivity §3.4 flags as "a major
// limiting factor in the performance of a CCRP system".
type RateRow struct {
	Rate    int // decoded bytes per cycle
	RelPerf float64
}

// DecodeRateAblation sweeps the decoder rate on burst EPROM at 256 bytes,
// where the paper's 2-byte/cycle decoder is the bottleneck. The rate
// changes only what a miss costs, so every row prices one miss profile.
func DecodeRateAblation(program string) ([]RateRow, error) {
	w, ok := workload.ByName(program)
	if !ok {
		return nil, errUnknown(program)
	}
	rom, err := preselROM(w)
	if err != nil {
		return nil, err
	}
	prof, err := missProfile(w, 256, 1, 16)
	if err != nil {
		return nil, err
	}
	var rows []RateRow
	for _, rate := range []int{1, 2, 4, 8} {
		cmp, err := core.Price(prof, rom, core.Config{Mem: memory.BurstEPROM{}, DecodeRate: rate})
		if err != nil {
			return nil, err
		}
		rows = append(rows, RateRow{Rate: rate, RelPerf: cmp.RelativePerformance()})
	}
	return rows, nil
}

// BlockSizeRow measures compression granularity (§2.1: "the cache line
// size must be reasonably large, however, the need to maintain good
// overall performance limits the line length").
type BlockSizeRow struct {
	BlockBytes int
	Ratio      float64 // blocks only, weighted over the Figure 5 corpus
}

// BlockSizeAblation compresses the corpus at block sizes 8..128 bytes
// under the preselected code (with per-block raw fallback) and reports
// the weighted compressed fraction.
func BlockSizeAblation() ([]BlockSizeRow, error) {
	code, err := PreselectedCode()
	if err != nil {
		return nil, err
	}
	var rows []BlockSizeRow
	for _, bs := range []int{8, 16, 32, 64, 128} {
		var orig, comp int
		for _, w := range workload.Figure5Set() {
			text, err := w.Text()
			if err != nil {
				return nil, err
			}
			for off := 0; off < len(text); off += bs {
				end := off + bs
				if end > len(text) {
					end = len(text)
				}
				block := text[off:end]
				bits, err := code.EncodedBits(block)
				if err != nil {
					return nil, err
				}
				stored := (bits + 7) / 8
				if stored >= len(block) {
					stored = len(block) // raw fallback
				}
				orig += len(block)
				comp += stored
			}
		}
		rows = append(rows, BlockSizeRow{BlockBytes: bs, Ratio: float64(comp) / float64(orig)})
	}
	return rows, nil
}

// DecoderCost reports the §3.4 hardware cost of the preselected code's
// decoder under the three implementation options.
func DecoderCost() (decoder.Cost, error) {
	code, err := PreselectedCode()
	if err != nil {
		return decoder.Cost{}, err
	}
	return decoder.CostOf(code)
}

// printExtensions prints the associativity, decoder-rate, block-size,
// and decoder-cost studies.
func printExtensions(w io.Writer, d extensionData) {
	fmt.Fprintln(w, "Extension: cache associativity for espresso (EPROM, relative performance)")
	fmt.Fprintln(w, "  Cache  Ways  Miss Rate  Rel Perf")
	for _, r := range d.Associativity {
		fmt.Fprintf(w, "  %5d  %4d  %8.2f%%  %8.3f\n", r.CacheBytes, r.Ways, 100*r.MissRate, r.RelPerf)
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "Extension: decoder rate (espresso, 256B, Burst EPROM)")
	fmt.Fprintln(w, "  Bytes/cycle  Rel Perf")
	for _, r := range d.DecodeRate {
		fmt.Fprintf(w, "  %11d  %8.3f\n", r.Rate, r.RelPerf)
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "Extension: compression vs block size (corpus weighted, blocks only)")
	fmt.Fprintln(w, "  Block  Ratio")
	for _, r := range d.BlockSize {
		fmt.Fprintf(w, "  %5d  %5.1f%%\n", r.BlockBytes, 100*r.Ratio)
	}
	fmt.Fprintln(w)

	cost := d.DecoderCost
	fmt.Fprintf(w, "Decoder hardware cost for the preselected code (§3.4):\n"+
		"  FSM: %d states (%d-bit state register)\n"+
		"  CAM: %d entries x %d bits\n"+
		"  ROM: %d bits (%.0f KB)\n",
		cost.FSMStates, cost.FSMStateBits,
		cost.CAMEntries, cost.CAMWidthBits,
		cost.ROMBits, float64(cost.ROMBits)/8192)
}
