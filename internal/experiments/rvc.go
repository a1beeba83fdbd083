package experiments

import (
	"fmt"
	"io"

	"ccrp/internal/huffman"
	"ccrp/internal/lzw"
	"ccrp/internal/riscv"
	"ccrp/internal/tablefmt"
	"ccrp/internal/workload"
)

// RVCRow compares CCRP's block-bounded Huffman compression against the
// RISC-V "C" extension on one RV32 program. The two attack the same
// redundancy from opposite ends: RVC re-encodes each frequent
// instruction into a fixed 16-bit form chosen at ISA-design time, while
// CCRP Huffman-codes the instruction bytes per program. The decode-cost
// columns capture the hardware asymmetry — an RVC expander is a
// fixed-function single-cycle circuit, whereas the CCRP refill engine
// shifts a variable number of code bits per byte.
type RVCRow struct {
	Program       string
	OriginalBytes int
	RVC           float64 // native RVC size / original (2 bytes per compressible word)
	Compressible  float64 // fraction of words with a 16-bit RVC form
	Bounded       float64 // CCRP 16-bit bounded Huffman + its code table
	Compress      float64 // Unix compress (LZW) reference
	DecodeBits    float64 // CCRP serial decode: average code bits per 32-bit instruction
}

// RVCComparison computes the row for every RV32 corpus program plus the
// size-weighted average row (Program == "Weighted Average").
func RVCComparison() ([]RVCRow, error) {
	var rows []RVCRow
	var totOrig int
	var totR, totF, totB, totC, totD float64
	for _, w := range workload.RISCV() {
		row, err := rvcRow(w)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		n := float64(row.OriginalBytes)
		totOrig += row.OriginalBytes
		totR += row.RVC * n
		totF += row.Compressible * n
		totB += row.Bounded * n
		totC += row.Compress * n
		totD += row.DecodeBits * n
	}
	n := float64(totOrig)
	rows = append(rows, RVCRow{
		Program:       "Weighted Average",
		OriginalBytes: totOrig,
		RVC:           totR / n,
		Compressible:  totF / n,
		Bounded:       totB / n,
		Compress:      totC / n,
		DecodeBits:    totD / n,
	})
	return rows, nil
}

func rvcRow(w *workload.Workload) (RVCRow, error) {
	text, err := w.Text()
	if err != nil {
		return RVCRow{}, err
	}
	row := RVCRow{Program: w.Name, OriginalBytes: len(text)}

	rvcBytes := riscv.CompressedSize(text)
	row.RVC = float64(rvcBytes) / float64(len(text))
	// 2 bytes saved per compressible 4-byte word.
	row.Compressible = float64(len(text)-rvcBytes) / float64(len(text)) * 2

	hist := huffman.HistogramOf(text)
	bounded, err := boundedCode(hist, HuffmanBound)
	if err != nil {
		return RVCRow{}, err
	}
	row.Bounded, err = blockRatio(text, bounded, true)
	if err != nil {
		return RVCRow{}, err
	}
	bits, err := bounded.EncodedBits(text)
	if err != nil {
		return RVCRow{}, err
	}
	row.DecodeBits = float64(bits) / (float64(len(text)) / 4)

	row.Compress, err = lzw.Ratio(text, lzw.MaxBitsDefault)
	if err != nil {
		return RVCRow{}, err
	}
	return row, nil
}

// printRVC prints the CCRP-vs-RVC comparison over the RV32 corpus.
func printRVC(w io.Writer, rows []RVCRow) {
	t := &tablefmt.Table{
		Title: "CCRP vs. RISC-V \"C\" Extension (compressed size, % of original)",
		Headers: []string{"Program", "Bytes", "RVC", "16-bit Forms",
			"Bounded Huffman", "Unix compress", "Decode bits/inst"},
	}
	for _, r := range rows {
		t.AddRow(r.Program, tablefmt.Bytes(r.OriginalBytes), tablefmt.Pct(r.RVC),
			tablefmt.Pct(r.Compressible), tablefmt.Pct(r.Bounded),
			tablefmt.Pct(r.Compress), fmt.Sprintf("%.1f", r.DecodeBits))
	}
	t.Render(w)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "RVC expansion is a fixed-function, single-cycle decode; the CCRP")
	fmt.Fprintln(w, "refill engine serially consumes the bit counts shown per instruction")
	fmt.Fprintln(w, "but compresses every word, not only those with 16-bit forms.")
}
