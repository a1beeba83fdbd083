package experiments

import (
	"ccrp/internal/core"
	"ccrp/internal/huffman"
	"ccrp/internal/lat"
	"ccrp/internal/memory"
	"ccrp/internal/workload"
)

// AlignmentRow compares byte-aligned against word-aligned compressed
// blocks for one program (the Figure 1 design choice: byte alignment
// compresses slightly better, word alignment simplifies the fetch path).
type AlignmentRow struct {
	Program     string
	ByteAligned float64 // compressed blocks / original, byte boundaries
	WordAligned float64 // compressed blocks / original, word boundaries
}

// Figure1Alignment computes the alignment ablation over the Figure 5 set.
func Figure1Alignment() ([]AlignmentRow, error) {
	code, err := PreselectedCode()
	if err != nil {
		return nil, err
	}
	var rows []AlignmentRow
	for _, w := range workload.Figure5Set() {
		text, err := w.Text()
		if err != nil {
			return nil, err
		}
		br, err := preselROM(w)
		if err != nil {
			return nil, err
		}
		wr, err := core.BuildROM(text, core.Options{Codes: []*huffman.Code{code}, WordAligned: true})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AlignmentRow{
			Program:     w.Name,
			ByteAligned: float64(br.BlocksSize()) / float64(br.OriginalSize),
			WordAligned: float64(wr.BlocksSize()) / float64(wr.OriginalSize),
		})
	}
	return rows, nil
}

// Figure2Addresses returns the physical start address of each of the
// first n compressed blocks of a program, illustrating the
// randomization of line addresses that motivates the LAT (Figure 2).
func Figure2Addresses(program string, n int) (orig []uint32, compressed []uint32, err error) {
	w, ok := workload.ByName(program)
	if !ok {
		return nil, nil, errUnknown(program)
	}
	rom, err := preselROM(w)
	if err != nil {
		return nil, nil, err
	}
	if n > len(rom.Lines) {
		n = len(rom.Lines)
	}
	for i := 0; i < n; i++ {
		addr, _, _, err := rom.Table.Lookup(uint32(i * core.LineSize))
		if err != nil {
			return nil, nil, err
		}
		orig = append(orig, uint32(i*core.LineSize))
		compressed = append(compressed, addr)
	}
	return orig, compressed, nil
}

type unknownErr string

func (e unknownErr) Error() string { return "experiments: unknown workload " + string(e) }
func errUnknown(p string) error    { return unknownErr(p) }

// LATRow compares the paper's grouped 8-byte LAT entries against the
// rejected one-pointer-per-block design (§3.2).
type LATRow struct {
	Program         string
	GroupedOverhead float64 // 8 bytes per 8 blocks = 3.125%
	NaiveOverhead   float64 // 4-byte pointer per block = 12.5%
}

// LATAblation computes the LAT encoding ablation.
func LATAblation() ([]LATRow, error) {
	var rows []LATRow
	for _, w := range workload.Figure5Set() {
		rom, err := preselROM(w)
		if err != nil {
			return nil, err
		}
		rows = append(rows, LATRow{
			Program:         w.Name,
			GroupedOverhead: float64(rom.TableSize()) / float64(rom.OriginalSize),
			NaiveOverhead:   float64(lat.NaiveTableSize(len(rom.Lines))) / float64(rom.OriginalSize),
		})
	}
	return rows, nil
}

// MultiCodeRow measures the §2.2 multiple-preselected-codes extension:
// adding the program's own bounded code as a second candidate (with its
// per-block tag cost) against the single preselected code.
type MultiCodeRow struct {
	Program    string
	SingleCode float64 // blocks+LAT under the preselected code alone
	TwoCodes   float64 // blocks+LAT+tags with {preselected, per-program}
}

// MultiCodeAblation computes the multi-code extension over the corpus.
func MultiCodeAblation() ([]MultiCodeRow, error) {
	presel, err := PreselectedCode()
	if err != nil {
		return nil, err
	}
	var rows []MultiCodeRow
	for _, w := range workload.Figure5Set() {
		text, err := w.Text()
		if err != nil {
			return nil, err
		}
		own, err := OwnCode(text)
		if err != nil {
			return nil, err
		}
		single, err := preselROM(w)
		if err != nil {
			return nil, err
		}
		double, err := core.BuildROM(text, core.Options{Codes: []*huffman.Code{presel, own}})
		if err != nil {
			return nil, err
		}
		rows = append(rows, MultiCodeRow{
			Program:    w.Name,
			SingleCode: single.Ratio(),
			TwoCodes:   double.Ratio(),
		})
	}
	return rows, nil
}

// OverlapRow measures the paper's §5 suggestion of letting the pipeline
// continue during refill. Both systems get the same absolute overlap
// window, so both speed up; note that because the CCRP's refills are the
// longer ones (on fast memory), hiding a fixed number of cycles from both
// systems widens the *ratio* even as both absolute times drop.
type OverlapRow struct {
	Program       string
	OverlapCycles uint64
	RelPerf       float64
	CyclesStd     uint64
	CyclesCCRP    uint64
}

// OverlapAblation sweeps the refill overlap window on the burst-EPROM
// model at 256 bytes (where refills dominate). The window changes only
// what a miss costs, so every row prices one miss profile.
func OverlapAblation(program string) ([]OverlapRow, error) {
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
	var rows []OverlapRow
	for _, ov := range []uint64{0, 2, 4, 8} {
		cmp, err := core.Price(prof, rom, core.Config{Mem: memory.BurstEPROM{}, OverlapCycles: ov})
		if err != nil {
			return nil, err
		}
		rows = append(rows, OverlapRow{
			Program:       program,
			OverlapCycles: ov,
			RelPerf:       cmp.RelativePerformance(),
			CyclesStd:     cmp.Standard.Cycles,
			CyclesCCRP:    cmp.CCRP.Cycles,
		})
	}
	return rows, nil
}

// ISARow supports the §5 "other instruction sets" discussion: the
// byte-oriented pipeline applied to non-R2000 byte streams — each
// program's initialized data section and a synthetic dense (high-entropy)
// encoding — compressed with the R2000-trained preselected code versus a
// stream-specific bounded code.
type ISARow struct {
	Stream      string
	Preselected float64 // compressed/original under the R2000 corpus code
	StreamTuned float64 // compressed/original under the stream's own code
}

// ISAAblation demonstrates that the preselected code is ISA-specific:
// it does far worse than a tuned code on non-instruction bytes.
func ISAAblation() ([]ISARow, error) {
	presel, err := PreselectedCode()
	if err != nil {
		return nil, err
	}
	streams := []struct {
		name string
		data []byte
	}{}
	for _, name := range []string{"matrix25a", "spim"} {
		w, _ := workload.ByName(name)
		p, err := w.Program()
		if err != nil {
			return nil, err
		}
		if len(p.Data) >= 256 {
			streams = append(streams, struct {
				name string
				data []byte
			}{name + ".data", p.Data})
		}
	}
	dense := make([]byte, 16384)
	rng := lcg{s: 0xDEC0DE}
	for i := range dense {
		dense[i] = byte(rng.next())
	}
	streams = append(streams, struct {
		name string
		data []byte
	}{"dense-ISA", dense})

	var rows []ISARow
	for _, s := range streams {
		own, err := boundedCode(huffman.HistogramOf(s.data).Smooth(), HuffmanBound)
		if err != nil {
			return nil, err
		}
		pr, err := blockRatio(s.data, presel, false)
		if err != nil {
			return nil, err
		}
		or, err := blockRatio(s.data, own, false)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ISARow{Stream: s.name, Preselected: pr, StreamTuned: or})
	}
	return rows, nil
}

// lcg mirrors the workload package's deterministic generator.
type lcg struct{ s uint64 }

func (r *lcg) next() uint32 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return uint32(r.s >> 33)
}
