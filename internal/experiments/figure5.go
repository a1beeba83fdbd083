package experiments

import (
	"ccrp/internal/core"
	"ccrp/internal/huffman"
	"ccrp/internal/lzw"
	"ccrp/internal/workload"
)

// Figure5Row is one bar group of Figure 5: the compressed size of one
// program under each method, as a fraction of original size.
//
// Accounting follows the paper's Figure 5 discussion: the Huffman methods
// compress 32-byte blocks onto addressable (byte) boundaries with the raw
// bypass; per-program codes (traditional and bounded) additionally carry
// their serialized code table, while the preselected code's table is
// hardwired in the decoder and costs nothing. Unix compress is whole-file
// LZW. The LAT is a separate, method-independent 3.125% and is reported
// by LATAblation.
type Figure5Row struct {
	Program       string
	OriginalBytes int
	Compress      float64 // Unix compress (LZW) reference
	Traditional   float64 // per-program unbounded Huffman + its table
	Bounded       float64 // per-program 16-bit bounded Huffman + its table
	Preselected   float64 // corpus-wide preselected bounded Huffman
}

// Figure5 computes the row for every Figure 5 program plus the
// size-weighted average row (Program == "Weighted Average").
func Figure5() ([]Figure5Row, error) {
	var rows []Figure5Row
	var totOrig int
	var totC, totT, totB, totP float64
	for _, w := range workload.Figure5Set() {
		row, err := figure5Row(w)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		totOrig += row.OriginalBytes
		totC += row.Compress * float64(row.OriginalBytes)
		totT += row.Traditional * float64(row.OriginalBytes)
		totB += row.Bounded * float64(row.OriginalBytes)
		totP += row.Preselected * float64(row.OriginalBytes)
	}
	rows = append(rows, Figure5Row{
		Program:       "Weighted Average",
		OriginalBytes: totOrig,
		Compress:      totC / float64(totOrig),
		Traditional:   totT / float64(totOrig),
		Bounded:       totB / float64(totOrig),
		Preselected:   totP / float64(totOrig),
	})
	return rows, nil
}

func figure5Row(w *workload.Workload) (Figure5Row, error) {
	text, err := w.Text()
	if err != nil {
		return Figure5Row{}, err
	}
	row := Figure5Row{Program: w.Name, OriginalBytes: len(text)}

	row.Compress, err = lzw.Ratio(text, lzw.MaxBitsDefault)
	if err != nil {
		return Figure5Row{}, err
	}

	hist := huffman.HistogramOf(text)
	trad, err := traditionalCode(hist)
	if err != nil {
		return Figure5Row{}, err
	}
	row.Traditional, err = blockRatio(text, trad, true)
	if err != nil {
		return Figure5Row{}, err
	}

	bounded, err := boundedCode(hist, HuffmanBound)
	if err != nil {
		return Figure5Row{}, err
	}
	row.Bounded, err = blockRatio(text, bounded, true)
	if err != nil {
		return Figure5Row{}, err
	}

	// The preselected ROM is the same image every performance sweep
	// simulates; the artifact cache hands all of them one build.
	rom, err := preselROM(w)
	if err != nil {
		return Figure5Row{}, err
	}
	row.Preselected = float64(rom.BlocksSize()) / float64(rom.OriginalSize)
	return row, nil
}

// blockRatio compresses text block-by-block under code and returns
// compressed/original, adding the serialized code table when the code
// must ship with the program.
func blockRatio(text []byte, code *huffman.Code, withTable bool) (float64, error) {
	rom, err := core.BuildROM(text, core.Options{Codes: []*huffman.Code{code}})
	if err != nil {
		return 0, err
	}
	size := rom.BlocksSize()
	if withTable {
		size += (code.TableBits() + 7) / 8
	}
	return float64(size) / float64(rom.OriginalSize), nil
}
