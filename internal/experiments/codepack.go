package experiments

import (
	"fmt"
	"io"

	"ccrp/internal/codepack"
	"ccrp/internal/core"
	"ccrp/internal/memory"
	"ccrp/internal/sweep"
	"ccrp/internal/workload"
)

// CodePackRow compares the paper's byte-Huffman scheme against the
// CodePack-style halfword-dictionary coder (§5's "more sophisticated
// encoding techniques", and where this research line actually went).
// Ratios include the LAT; refill figures are the mean compressed-line
// refill time under burst EPROM (the decode-bound regime).
type CodePackRow struct {
	Program     string
	ByteHuffman float64
	CodePack    float64
	ByteRefill  float64
	CPRefill    float64
}

// CodePackCoder returns the corpus-trained CodePack coder (the analogue
// of the preselected byte code: fixed, hardwired dictionaries). Trained
// once per corpus through the artifact cache.
func CodePackCoder() (*codepack.Coder, error) {
	keys, err := corpusKey()
	if err != nil {
		return nil, err
	}
	return sweep.Get(artifacts(), sweep.Key("codepack/corpus", keys.corpus),
		func() (*codepack.Coder, error) {
			var images [][]byte
			for _, w := range workload.Figure5Set() {
				text, err := w.Text()
				if err != nil {
					return nil, err
				}
				images = append(images, text)
			}
			return codepack.Train(images...)
		})
}

// CodePackStudy compresses each Figure 5 program under both schemes,
// with the identical block-bounded pipeline (raw bypass, LAT).
func CodePackStudy() ([]CodePackRow, error) {
	cp, err := CodePackCoder()
	if err != nil {
		return nil, err
	}
	engine := core.RefillEngine{Mem: memory.BurstEPROM{}}

	var rows []CodePackRow
	for _, w := range workload.Figure5Set() {
		text, err := w.Text()
		if err != nil {
			return nil, err
		}
		row := CodePackRow{Program: w.Name}

		byteROM, err := preselROM(w)
		if err != nil {
			return nil, err
		}
		row.ByteHuffman = byteROM.Ratio()
		row.ByteRefill = meanRefill(engine, byteROM)

		cpROM, err := core.BuildROM(text, core.Options{Codec: cp})
		if err != nil {
			return nil, err
		}
		if err := cpROM.Verify(); err != nil {
			return nil, err
		}
		row.CodePack = cpROM.Ratio()
		row.CPRefill = meanRefill(engine, cpROM)

		rows = append(rows, row)
	}
	return rows, nil
}

func meanRefill(engine core.RefillEngine, rom *core.ROM) float64 {
	var cycles uint64
	for i := range rom.Lines {
		cycles += engine.LineCycles(rom, i)
	}
	return float64(cycles) / float64(len(rom.Lines))
}

// CodePackPerfRow is a trace-driven system comparison of the two schemes.
type CodePackPerfRow struct {
	Program     string
	Memory      string
	ByteRelPerf float64
	CPRelPerf   float64
	ByteTraffic float64
	CPTraffic   float64
}

// CodePackPerf runs the full trace-driven comparison for the two most
// refill-sensitive programs under both memory models. Both ROMs of a
// program index the same text, so one miss profile prices all four of
// its configurations: the coder changes what a miss costs, never which
// fetches miss.
func CodePackPerf() ([]CodePackPerfRow, error) {
	cp, err := CodePackCoder()
	if err != nil {
		return nil, err
	}
	var rows []CodePackPerfRow
	for _, prog := range []string{"espresso", "fpppp"} {
		w, ok := workload.ByName(prog)
		if !ok {
			return nil, errUnknown(prog)
		}
		text, err := w.Text()
		if err != nil {
			return nil, err
		}
		byteROM, err := preselROM(w)
		if err != nil {
			return nil, err
		}
		cpROM, err := core.BuildROM(text, core.Options{Codec: cp})
		if err != nil {
			return nil, err
		}
		prof, err := missProfile(w, 256, 1, 16)
		if err != nil {
			return nil, err
		}
		for _, mem := range []memory.Model{memory.EPROM{}, memory.BurstEPROM{}} {
			bc, err := core.Price(prof, byteROM, core.Config{Mem: mem})
			if err != nil {
				return nil, err
			}
			cc, err := core.Price(prof, cpROM, core.Config{Mem: mem})
			if err != nil {
				return nil, err
			}
			rows = append(rows, CodePackPerfRow{
				Program:     prog,
				Memory:      mem.Name(),
				ByteRelPerf: bc.RelativePerformance(),
				CPRelPerf:   cc.RelativePerformance(),
				ByteTraffic: bc.TrafficRatio(),
				CPTraffic:   cc.TrafficRatio(),
			})
		}
	}
	return rows, nil
}

// printCodePack prints the encoding-scheme comparison.
func printCodePack(w io.Writer, d codePackData) {
	fmt.Fprintln(w, "Extension (§5): byte-Huffman vs CodePack-style halfword dictionaries")
	fmt.Fprintln(w, "  Program    Byte ratio  CodePack ratio  Byte refill  CodePack refill (burst EPROM cycles/line)")
	for _, r := range d.Compression {
		fmt.Fprintf(w, "  %-9s  %9.1f%%  %13.1f%%  %11.1f  %15.1f\n",
			r.Program, 100*r.ByteHuffman, 100*r.CodePack, r.ByteRefill, r.CPRefill)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Trace-driven (256B cache): relative performance and traffic by scheme")
	fmt.Fprintln(w, "  Program   Memory       Byte rel  CP rel  Byte traffic  CP traffic")
	for _, r := range d.Performance {
		fmt.Fprintf(w, "  %-8s  %-11s  %8.3f  %6.3f  %11.1f%%  %9.1f%%\n",
			r.Program, r.Memory, r.ByteRelPerf, r.CPRelPerf, 100*r.ByteTraffic, 100*r.CPTraffic)
	}
}
