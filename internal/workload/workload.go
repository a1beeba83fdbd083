// Package workload provides the benchmark corpus of the reproduction:
// fourteen MIPS R2000 programs mirroring the paper's test set (the ten
// Figure 5 programs plus the simulation-only nasa7/nasa1/tomcatv/fpppp
// set) and three RV32 programs for the RVC comparison. Each is assembled
// from source by internal/asm on first use, and executed by internal/sim
// only when its run or trace is asked for, so a caller that needs only
// the text never simulates.
//
// The hand-written core of each program reproduces the dynamic locality
// of its namesake (loop working sets, dispatch irregularity, straight-line
// block size); a deterministic synthesizer adds cold compiled-style code
// so static sizes match the binaries the paper compressed. See DESIGN.md
// for the substitution rationale.
package workload

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"

	"ccrp/internal/asm"
	_ "ccrp/internal/mips" // the corpus is R2000 code; register its backend
	"ccrp/internal/sim"
	"ccrp/internal/trace"
)

// Workload is one corpus program.
type Workload struct {
	Name        string
	Description string
	ISA         string // ISA backend name ("" means the default MIPS)
	PaperBytes  int    // static size reported in the paper, for reference
	InFigure5   bool   // member of the ten-program Figure 5 compression set
	WantOutput  string // golden console output (checked by tests)
	FP          bool   // uses the COP1 floating-point subset

	buildSrc func() string

	asmOnce sync.Once // for Source, Program, Text and StaticBytes
	src     string
	prog    *asm.Program
	asmErr  error

	runOnce sync.Once // for Run and Trace
	result  *sim.Result
	output  string
	runErr  error
}

// maxWorkloadInstr bounds any corpus program's dynamic length; the
// paper's traces run 10K to 1M instructions.
const maxWorkloadInstr = 4_000_000

func pad(prefix string, n, bodyOps int, style synthStyle, seed uint64) string {
	return synthFunctions(prefix, n, bodyOps, style, seed, 4)
}

// yaccTable generates the parser's dense 16x8 transition table.
func yaccTable() string {
	var b strings.Builder
	b.WriteString("yy_table:\n")
	for i := 0; i < 128; i += 8 {
		b.WriteString("\t.byte ")
		for j := 0; j < 8; j++ {
			if j > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%d", ((i+j)*5+3)&15)
		}
		b.WriteString("\n")
	}
	return b.String()
}

var registry = []*Workload{
	{
		Name:        "eightq",
		WantOutput:  "92 82110\n",
		Description: "8-queens solution counter (array-based backtracking)",
		PaperBytes:  4020,
		InFigure5:   true,
		buildSrc: func() string {
			return wrapMain(eightqText, eightqData, pad("eq8", 5, 100, styleInt, 0xE1), "")
		},
	},
	{
		Name:        "lloop01",
		WantOutput:  "2003708\n",
		Description: "Livermore loop 1 (hydro fragment), fixed point",
		PaperBytes:  4020,
		InFigure5:   true,
		buildSrc: func() string {
			return wrapMain(lloop01Text, lloop01Data, pad("ll1", 6, 100, styleInt, 0x11), "")
		},
	},
	{
		Name:        "matrix25a",
		WantOutput:  "10187500\n",
		Description: "25x25 integer matrix multiply",
		PaperBytes:  36766,
		InFigure5:   true,
		buildSrc: func() string {
			return wrapMain(matrix25aText, matrix25aData, pad("mx", 60, 120, styleInt, 0x25), "")
		},
	},
	{
		Name:        "tex",
		WantOutput:  "2400 25500\n",
		Description: "text formatter line-breaking inner loop",
		PaperBytes:  53172,
		InFigure5:   true,
		buildSrc: func() string {
			return wrapMain(texText, texData, pad("tex", 88, 118, styleInt, 0x7E), "")
		},
	},
	{
		Name:        "pswarp",
		WantOutput:  "1185777\n",
		Description: "fixed-point image warp and resample",
		PaperBytes:  61364,
		InFigure5:   true,
		buildSrc: func() string {
			return wrapMain(pswarpText, pswarpData, pad("pw", 100, 120, styleFP, 0x9A), "")
		},
	},
	{
		Name:        "yacc",
		WantOutput:  "1820 7625\n",
		Description: "LR parser table walker over a token stream",
		PaperBytes:  49076,
		InFigure5:   true,
		buildSrc: func() string {
			return wrapMain(yaccText, yaccTable(), pad("yy", 80, 120, styleInt, 0x3C), "")
		},
	},
	{
		Name:        "who",
		WantOutput:  "440 30550\n",
		Description: "login-record scanner and filter",
		PaperBytes:  65940,
		InFigure5:   true,
		buildSrc: func() string {
			return wrapMain(whoText, whoData, pad("who", 108, 120, styleInt, 0x40), "")
		},
	},
	{
		Name:        "xlisp",
		WantOutput:  "44100\n",
		Description: "lisp interpreter kernel: cons cells, map/reverse/sum",
		PaperBytes:  65940,
		InFigure5:   true,
		buildSrc: func() string {
			return wrapMain(xlispText, xlispData, pad("xl", 108, 120, styleInt, 0x55), "")
		},
	},
	{
		Name:        "espresso",
		WantOutput:  "1561875\n",
		Description: "logic minimizer flavor: data-driven dispatch over a large routine table",
		PaperBytes:  176052,
		InFigure5:   true,
		buildSrc: func() string {
			hot := synthFunctions("esp", espressoDispatchN, 42, styleInt, 0xE5, 2)
			cold := pad("espc", 248, 120, styleInt, 0xE6)
			return wrapMain(espressoText+hot, "", cold,
				synthDispatchTable("esp_table", "esp", espressoDispatchN))
		},
	},
	{
		Name:        "spim",
		WantOutput:  "1675177549\n",
		Description: "bytecode VM with table-dispatched interpreter loop",
		PaperBytes:  147360,
		InFigure5:   true,
		buildSrc: func() string {
			return wrapMain(spimText+spimHandlers(), spimData+spimTable(),
				pad("sp", 240, 120, styleFP, 0x51), "")
		},
	},
	{
		Name:        "nasa7",
		WantOutput:  "8746\n",
		Description: "seven double-precision numeric kernels",
		FP:          true,
		buildSrc: func() string {
			return wrapMain(nasa7Source(), nasa7Data, pad("na", 145, 120, styleFP, 0xA7), "")
		},
	},
	{
		Name:        "nasa1",
		WantOutput:  "122581\n",
		Description: "double-precision 1D smoothing kernel",
		FP:          true,
		buildSrc: func() string {
			return wrapMain(nasa1Text, nasa1Data, pad("n1", 40, 120, styleFP, 0xA1), "")
		},
	},
	{
		Name:        "tomcatv",
		WantOutput:  "1218816\n",
		Description: "mesh relaxation over a 24x24 double grid",
		FP:          true,
		buildSrc: func() string {
			return wrapMain(tomcatvText, tomcatvData, pad("tc", 50, 120, styleFP, 0x7C), "")
		},
	},
	{
		Name:        "fpppp",
		WantOutput:  "770977204\n",
		Description: "one ~1.7KB straight-line FP block, constant heavy",
		FP:          true,
		buildSrc: func() string {
			body := synthStraightLine("fp_body", 330, 0xFB)
			return wrapMain(fpppppLoop+body, "", pad("fpc", 60, 120, styleConst, 0xFC), "")
		},
	},
}

// All returns every workload in presentation order.
func All() []*Workload { return registry }

// Figure5Set returns the ten programs of the paper's Figure 5, in the
// paper's order.
func Figure5Set() []*Workload {
	order := []string{"tex", "pswarp", "yacc", "who", "eightq",
		"matrix25a", "lloop01", "xlisp", "espresso", "spim"}
	out := make([]*Workload, 0, len(order))
	for _, n := range order {
		w, ok := ByName(n)
		if !ok {
			panic("workload: Figure 5 set inconsistent: " + n)
		}
		out = append(out, w)
	}
	return out
}

// both is every workload of both corpora, the R2000 set (All) and then
// the RV32 ports (RISCV): what ByName searches and Names lists.
var both = slices.Concat(registry, rvRegistry)

// ByName finds a workload of either corpus.
func ByName(name string) (*Workload, bool) {
	for _, w := range both {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

// Names lists the workloads of both corpora, the R2000 set first.
func Names() []string {
	out := make([]string, len(both))
	for i, w := range both {
		out[i] = w.Name
	}
	return out
}

// assemble composes and assembles the program exactly once.
func (w *Workload) assemble() {
	w.asmOnce.Do(func() {
		w.src = w.buildSrc()
		prog, err := asm.AssembleFor(w.ISA, w.Name, w.src)
		if err != nil {
			w.asmErr = fmt.Errorf("workload %s: %w", w.Name, err)
			return
		}
		w.prog = prog
	})
}

// Source returns the composed assembly source.
func (w *Workload) Source() string {
	w.assemble()
	return w.src
}

// Program returns the assembled image.
func (w *Workload) Program() (*asm.Program, error) {
	w.assemble()
	return w.prog, w.asmErr
}

// Run returns the simulation result (with trace) and console output. The
// program runs on the first call and the result is cached.
func (w *Workload) Run() (*sim.Result, string, error) {
	w.runOnce.Do(func() {
		prog, err := w.Program()
		if err != nil {
			w.runErr = err
			return
		}
		var out bytes.Buffer
		m := sim.New(prog, sim.Config{
			Stdout:       &out,
			CollectTrace: true,
			MaxInstr:     maxWorkloadInstr,
		})
		res, err := m.Run()
		if err != nil {
			w.runErr = fmt.Errorf("workload %s: %w", w.Name, err)
			return
		}
		w.result = res
		w.output = out.String()
	})
	return w.result, w.output, w.runErr
}

// Trace returns the cached instruction trace.
func (w *Workload) Trace() (*trace.Trace, error) {
	res, _, err := w.Run()
	if err != nil {
		return nil, err
	}
	return res.Trace, nil
}

// Text returns the program's text section (the bytes the CCRP compresses).
func (w *Workload) Text() ([]byte, error) {
	p, err := w.Program()
	if err != nil {
		return nil, err
	}
	return p.Text, nil
}

// StaticBytes returns the text section size.
func (w *Workload) StaticBytes() (int, error) {
	t, err := w.Text()
	if err != nil {
		return 0, err
	}
	return len(t), nil
}
