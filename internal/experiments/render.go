package experiments

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"ccrp/internal/tablefmt"
)

// printFigure5 prints the Figure 5 compression comparison.
func printFigure5(w io.Writer, rows []Figure5Row) {
	t := &tablefmt.Table{
		Title: "Figure 5 - Four Compression Methods (compressed size, % of original)",
		Headers: []string{"Program", "Bytes", "Unix compress", "Traditional Huffman",
			"Bounded Huffman", "Preselected Bounded"},
	}
	for _, r := range rows {
		t.AddRow(r.Program, tablefmt.Bytes(r.OriginalBytes), tablefmt.Pct(r.Compress),
			tablefmt.Pct(r.Traditional), tablefmt.Pct(r.Bounded), tablefmt.Pct(r.Preselected))
	}
	t.Render(w)
}

// printTables1to8 prints the per-program cache sweeps in the paper's
// Table 1-8 layout.
func printTables1to8(w io.Writer, res map[string][]PerfPoint) {
	for i, prog := range PerfPrograms {
		t := &tablefmt.Table{
			Title: fmt.Sprintf("Table %d: %s - 16 entry CLB, 100%% Data Cache Miss Rate", i+1, prog),
			Headers: []string{"Memory", "Cache Size", "Relative Performance",
				"Cache Miss Rate", "Memory Traffic"},
		}
		for _, p := range res[prog] {
			t.AddRow(p.Memory, fmt.Sprintf("%d byte", p.CacheBytes),
				tablefmt.Ratio(p.RelPerf), tablefmt.Pct(p.MissRate), tablefmt.Pct(p.Traffic))
		}
		t.Render(w)
		fmt.Fprintln(w)
	}
}

// printTables9and10 prints the CLB-size sweeps.
func printTables9and10(w io.Writer, res map[string][]PerfPoint) {
	for i, prog := range []string{"nasa7", "espresso"} {
		t := &tablefmt.Table{
			Title: fmt.Sprintf("Table %d: %s - 100%% Data Cache Miss Rate (relative performance)", 9+i, prog),
			Headers: []string{"Memory", "Cache Size",
				"16 CLB Entries", "8 CLB Entries", "4 CLB Entries"},
		}
		type key struct {
			mem string
			cs  int
		}
		cells := map[key]map[int]float64{}
		var order []key
		for _, p := range res[prog] {
			k := key{p.Memory, p.CacheBytes}
			if cells[k] == nil {
				cells[k] = map[int]float64{}
				order = append(order, k)
			}
			cells[k][p.CLBEntries] = p.RelPerf
		}
		for _, k := range order {
			t.AddRow(k.mem, fmt.Sprintf("%d byte", k.cs),
				tablefmt.Ratio(cells[k][16]), tablefmt.Ratio(cells[k][8]), tablefmt.Ratio(cells[k][4]))
		}
		t.Render(w)
		fmt.Fprintln(w)
	}
}

// printFigure9 prints the scatter as sorted (miss rate, relative
// performance) series, one block per memory model.
func printFigure9(w io.Writer, pts []PerfPoint) {
	t := &tablefmt.Table{
		Title:   "Figure 9 - Performance vs. Instruction Cache Miss Rate",
		Headers: []string{"Memory", "Program", "Cache", "Miss Rate", "Relative Performance"},
	}
	pts = slices.Clone(pts)
	sort.SliceStable(pts, func(i, j int) bool {
		if pts[i].Memory != pts[j].Memory {
			return pts[i].Memory < pts[j].Memory
		}
		return pts[i].MissRate < pts[j].MissRate
	})
	for _, p := range pts {
		t.AddRow(p.Memory, p.Program, fmt.Sprintf("%d", p.CacheBytes),
			tablefmt.Pct(p.MissRate), tablefmt.Ratio(p.RelPerf))
	}
	t.Render(w)
}

// printTables11to13 prints the data-cache effect tables.
func printTables11to13(w io.Writer, res map[string][]PerfPoint) {
	for i, prog := range []string{"nasa7", "espresso", "fpppp"} {
		t := &tablefmt.Table{
			Title: fmt.Sprintf("Table %d: %s - Effect of Data Cache Miss Rate (1KB I-cache, 16 entry CLB)",
				11+i, prog),
			Headers: []string{"Memory", "Dcache Miss Rate", "Relative Performance"},
		}
		for _, p := range res[prog] {
			t.AddRow(p.Memory, tablefmt.Pct(p.DCacheMissRate), tablefmt.Ratio(p.RelPerf))
		}
		t.Render(w)
		fmt.Fprintln(w)
	}
}

// printFigure1 prints the block-alignment ablation.
func printFigure1(w io.Writer, rows []AlignmentRow) {
	t := &tablefmt.Table{
		Title:   "Figure 1 - Block-Bounded Compression: byte vs word alignment (blocks only)",
		Headers: []string{"Program", "Byte Aligned", "Word Aligned"},
	}
	for _, r := range rows {
		t.AddRow(r.Program, tablefmt.Pct(r.ByteAligned), tablefmt.Pct(r.WordAligned))
	}
	t.Render(w)
}

// printFigure2 prints the line-address randomization illustration.
func printFigure2(w io.Writer, d figure2Data) {
	t := &tablefmt.Table{
		Title:   fmt.Sprintf("Figure 2 - Randomization of Line Addresses (%s)", d.Program),
		Headers: []string{"Program Address", "Compressed Address", "Delta"},
	}
	for i, orig := range d.Original {
		comp := d.Compressed[i]
		t.AddRow(fmt.Sprintf("%08x", orig), fmt.Sprintf("%08x", comp),
			fmt.Sprintf("%d", int64(orig)-int64(comp)))
	}
	t.Render(w)
}

// printAblations prints the extension/ablation studies promised in
// DESIGN.md §9.
func printAblations(w io.Writer, d ablationData) {
	t := &tablefmt.Table{
		Title:   "Ablation: LAT encoding (overhead as % of original program)",
		Headers: []string{"Program", "Grouped 8B entries", "Naive 4B pointers"},
	}
	for _, r := range d.LAT {
		t.AddRow(r.Program, tablefmt.Pct(r.GroupedOverhead), tablefmt.Pct(r.NaiveOverhead))
	}
	t.Render(w)
	fmt.Fprintln(w)

	t = &tablefmt.Table{
		Title:   "Ablation: multiple preselected codes (total image ratio)",
		Headers: []string{"Program", "Single code", "Two codes (+tags)"},
	}
	for _, r := range d.MultiCode {
		t.AddRow(r.Program, tablefmt.Pct(r.SingleCode), tablefmt.Pct(r.TwoCodes))
	}
	t.Render(w)
	fmt.Fprintln(w)

	t = &tablefmt.Table{
		Title:   "Ablation: pipeline overlap during refill (espresso, 256B, Burst EPROM)",
		Headers: []string{"Overlap Cycles", "Std Cycles", "CCRP Cycles", "Relative Performance"},
	}
	for _, r := range d.Overlap {
		t.AddRow(fmt.Sprintf("%d", r.OverlapCycles),
			fmt.Sprintf("%d", r.CyclesStd), fmt.Sprintf("%d", r.CyclesCCRP),
			tablefmt.Ratio(r.RelPerf))
	}
	t.Render(w)
	fmt.Fprintln(w)

	t = &tablefmt.Table{
		Title:   "Ablation: preselected code on non-R2000 byte streams",
		Headers: []string{"Stream", "R2000 Preselected", "Stream-tuned Bounded"},
	}
	for _, r := range d.ISA {
		t.AddRow(r.Stream, tablefmt.Pct(r.Preselected), tablefmt.Pct(r.StreamTuned))
	}
	t.Render(w)
}
