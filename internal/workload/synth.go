package workload

import (
	"strconv"
	"strings"
)

// lcg is a tiny deterministic generator so that workload sources are
// byte-for-byte reproducible across runs and platforms (no dependence on
// math/rand's algorithm choices).
type lcg struct{ s uint64 }

func (r *lcg) next() uint32 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return uint32(r.s >> 33)
}

func (r *lcg) intn(n int) int { return int(r.next() % uint32(n)) }

// synthStyle biases the synthesizer's instruction mix.
type synthStyle int

const (
	styleInt   synthStyle = iota // typical integer compiled code
	styleFP                      // FP arithmetic heavy (nasa/tomcatv flavor)
	styleConst                   // addressing-constant heavy (fpppp flavor)
)

// synthFunctions emits n compiled-style MIPS functions named
// <prefix>_fn0..n-1. Functions may call strictly higher-numbered
// neighbors (so the call graph is a DAG and termination is structural),
// branch only forward within their body, and confine stores to their
// stack frame and the shared synth_scratch array. bodyOps controls the
// approximate body length in instructions.
//
// The emitted text is genuine R2000 machine code once assembled; its only
// purpose beyond being executable is to give each workload a realistic
// static size and byte histogram, standing in for the large compiled
// binaries the paper measured (see DESIGN.md's substitution table).
func synthFunctions(prefix string, n, bodyOps int, style synthStyle, seed uint64, callPct int) string {
	rng := &lcg{s: seed ^ 0x9E3779B97F4A7C15}
	var w srcWriter
	for i := 0; i < n; i++ {
		emitSynthFunc(&w, rng, prefix, i, n, bodyOps, style, callPct)
	}
	return w.String()
}

func emitSynthFunc(w *srcWriter, rng *lcg, prefix string, i, n, bodyOps int, style synthStyle, callPct int) {
	w.s(prefix, "_fn").d(i).s(":\n")
	w.s("\taddiu $sp, $sp, -24\n")
	w.s("\tsw $ra, 0($sp)\n")
	w.s("\tsw $s0, 4($sp)\n")
	w.s("\tsw $s1, 8($sp)\n")
	w.s("\tla $s0, synth_scratch\n")
	w.s("\tmove $s1, $a0\n")

	temps := []string{"$t0", "$t1", "$t2", "$t3", "$t4", "$t5", "$t6", "$t7"}
	label := 0
	pending := -1 // ops until the pending forward label is placed
	pendingLabel := -1
	for op := 0; op < bodyOps; op++ {
		if pending == 0 {
			w.s(prefix, "_fn").d(i).s("_L").d(pendingLabel).s(":\n")
			pending = -1
		} else if pending > 0 {
			pending--
		}
		a := temps[rng.intn(len(temps))]
		c := temps[rng.intn(len(temps))]
		d := temps[rng.intn(len(temps))]
		roll := rng.intn(100)
		fpBias := 0
		if style == styleFP {
			fpBias = 35
		}
		constBias := 0
		if style == styleConst {
			constBias = 40
		}
		switch {
		case roll < constBias:
			// fpppp flavor: addressing constants with spread-out bytes.
			w.s("\tlui ", a, ", 0x").x4(rng.next() & 0xFFFF).s("\n")
			w.s("\tori ", a, ", ", a, ", 0x").x4(rng.next() & 0xFFFF).s("\n")
		case roll < constBias+fpBias:
			f1 := rng.intn(8) * 2
			f2 := rng.intn(8) * 2
			f3 := rng.intn(8) * 2
			switch rng.intn(4) {
			case 0:
				w.s("\tadd.d ").fp3(f1, f2, f3)
			case 1:
				w.s("\tmul.d ").fp3(f1, f2, f3)
			case 2:
				w.s("\tsub.d ").fp3(f1, f2, f3)
			case 3:
				w.s("\tl.d $f").d(f1).s(", ").d(rng.intn(30) * 8).s("($s0)\n")
			}
		case roll < constBias+fpBias+14:
			w.s("\tlw ", a, ", ").d(rng.intn(64) * 4).s("($s0)\n")
		case roll < constBias+fpBias+22:
			w.s("\tsw ", a, ", ").d(rng.intn(64) * 4).s("($s0)\n")
		case roll < constBias+fpBias+34:
			w.s("\taddu ", a, ", ", c, ", ", d, "\n")
		case roll < constBias+fpBias+42:
			w.s("\taddiu ", a, ", ", c, ", ").d(rng.intn(512) - 256).s("\n")
		case roll < constBias+fpBias+50:
			w.s("\t", []string{"and", "or", "xor", "subu"}[rng.intn(4)], " ", a, ", ", c, ", ", d, "\n")
		case roll < constBias+fpBias+58:
			w.s("\t", []string{"sll", "srl", "sra"}[rng.intn(3)], " ", a, ", ", c, ", ").d(rng.intn(31) + 1).s("\n")
		case roll < constBias+fpBias+64:
			w.s("\tslt ", a, ", ", c, ", ", d, "\n")
		case roll < constBias+fpBias+70:
			w.s("\tori ", a, ", ", c, ", 0x").x(rng.next() & 0xFF).s("\n")
		case roll < constBias+fpBias+78 && pending < 0 && op+4 < bodyOps:
			// Forward conditional branch over a few instructions.
			pendingLabel = label
			label++
			br := []string{"beq", "bne"}[rng.intn(2)]
			w.s("\t", br, " ", a, ", ", c, ", ", prefix, "_fn").d(i).s("_L").d(pendingLabel).s("\n")
			w.s("\tnop\n")
			pending = 2 + rng.intn(3)
		case roll < constBias+fpBias+78+callPct && i+1 < n:
			// Call a strictly higher-numbered function (DAG).
			callee := i + 1 + rng.intn(n-i-1)
			w.s("\tjal ", prefix, "_fn").d(callee).s("\n")
			w.s("\tnop\n")
		default:
			w.s("\tlui ", a, ", 0x").x(uint32(rng.intn(1024))).s("\n")
		}
	}
	if pending >= 0 {
		w.s(prefix, "_fn").d(i).s("_L").d(pendingLabel).s(":\n")
	}
	w.s("\tmove $v0, $s1\n")
	w.s("\tlw $ra, 0($sp)\n")
	w.s("\tlw $s0, 4($sp)\n")
	w.s("\tlw $s1, 8($sp)\n")
	w.s("\taddiu $sp, $sp, 24\n")
	w.s("\tjr $ra\n")
	w.s("\tnop\n")
}

// synthDispatchTable emits a .data table of the addresses of the n
// synthesized functions, for indirect (jalr) dispatch loops.
func synthDispatchTable(label, prefix string, n int) string {
	var w srcWriter
	w.s(label, ":\n")
	for i := 0; i < n; i++ {
		w.s("\t.word ", prefix, "_fn").d(i).s("\n")
	}
	return w.String()
}

// srcWriter composes assembly source. Its appends format numbers with
// strconv into the builder, so emitting a line allocates nothing; fmt
// would box every operand.
type srcWriter struct{ strings.Builder }

// s appends each string.
func (w *srcWriter) s(parts ...string) *srcWriter {
	for _, p := range parts {
		w.WriteString(p)
	}
	return w
}

// d appends v in decimal.
func (w *srcWriter) d(v int) *srcWriter {
	var buf [20]byte
	w.Write(strconv.AppendInt(buf[:0], int64(v), 10))
	return w
}

// x appends v in lower-case hex.
func (w *srcWriter) x(v uint32) *srcWriter {
	var buf [8]byte
	w.Write(strconv.AppendUint(buf[:0], uint64(v), 16))
	return w
}

// x4 appends v in lower-case hex, zero-padded to at least four digits.
func (w *srcWriter) x4(v uint32) *srcWriter {
	for shift := 12; shift > 0 && v < 1<<shift; shift -= 4 {
		w.WriteByte('0')
	}
	return w.x(v)
}

// fp3 appends "$fA, $fB, $fC" and ends the line.
func (w *srcWriter) fp3(a, b, c int) *srcWriter {
	return w.s("$f").d(a).s(", $f").d(b).s(", $f").d(c).s("\n")
}

// synthScratch is the shared writable array all synthesized functions
// confine their stores to.
const synthScratch = `
synth_scratch:
	.space 256
`
