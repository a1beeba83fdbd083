package workload

import (
	_ "ccrp/internal/riscv" // register the rv32 backend
)

// The RISC-V corpus: RV32I+M ports of representative workloads, kept in
// a separate registry from the R2000 set (the paper's corpus stays
// untouched). Their purpose is the CCRP-vs-RVC comparison: the same
// block-bounded Huffman sweep runs over this text, and the rvc
// experiment holds the resulting ratios against the native 16-bit "C"
// encoding of the identical programs.

var rvRegistry = []*Workload{
	{
		Name:        "rv-matrix",
		ISA:         "rv32",
		WantOutput:  "567848\n",
		Description: "20x20 integer matrix multiply (RV32IM)",
		buildSrc: func() string {
			return rvWrapMain(rvMatrixText, rvMatrixData,
				rvSynthFunctions("rvm", 40, 100, 0x2A, 4))
		},
	},
	{
		Name:        "rv-sieve",
		ISA:         "rv32",
		WantOutput:  "550 3989\n",
		Description: "prime sieve and divisor-sum loop (RV32IM)",
		buildSrc: func() string {
			return rvWrapMain(rvSieveText, rvSieveData,
				rvSynthFunctions("rvs", 30, 110, 0x5E, 4))
		},
	},
	{
		Name:        "rv-dispatch",
		ISA:         "rv32",
		WantOutput:  "719400\n",
		Description: "table-dispatched interpreter flavor (RV32IM, jalr heavy)",
		buildSrc: func() string {
			hot := rvSynthFunctions("rvd", 24, 40, 0xD1, 0)
			return rvWrapMain(rvDispatchText+hot,
				synthDispatchTable("rvd_table", "rvd", 24),
				rvSynthFunctions("rvdc", 30, 100, 0xD2, 4))
		},
	},
}

// RISCV returns the RV32 corpus in presentation order.
func RISCV() []*Workload { return rvRegistry }

// rvWrapMain composes a complete RV32 program: entry stub, core text
// (defining main), runtime, cold padding, and the data sections.
func rvWrapMain(coreText, coreData, padText string) string {
	return "\t.text\n__start:\n\tcall main\n\tli a7, 10\n\tecall\n" +
		coreText + rvRuntimeText + padText +
		"\n\t.data\n" + coreData + synthScratch
}

// rvRuntimeText mirrors the MIPS runtime's console helpers on the same
// SPIM syscall numbers (a7 = service, a0 = argument).
const rvRuntimeText = `
# --- shared runtime ---

# rv_print_int: print a0 as a signed decimal.
rv_print_int:
	li	a7, 1
	ecall
	ret

# rv_print_intnl: print a0 then a newline.
rv_print_intnl:
	li	a7, 1
	ecall
	li	a0, '\n'
	li	a7, 11
	ecall
	ret

# rv_print_char: print the character in a0.
rv_print_char:
	li	a7, 11
	ecall
	ret
`

const rvMatrixText = `
# main: C = A x B for 20x20 int matrices, then print sum(C).
main:
	addi	sp, sp, -16
	sw	ra, 12(sp)
	# fill A[i] = i%17+1, B[i] = i%13+2
	la	t0, rv_ma
	la	t1, rv_mb
	li	t2, 0
	li	t3, 400
mm_fill:
	li	t4, 17
	rem	t4, t2, t4
	addi	t4, t4, 1
	sw	t4, 0(t0)
	li	t4, 13
	rem	t4, t2, t4
	addi	t4, t4, 2
	sw	t4, 0(t1)
	addi	t0, t0, 4
	addi	t1, t1, 4
	addi	t2, t2, 1
	blt	t2, t3, mm_fill
	# triple loop
	li	s2, 0          # i
	la	s5, rv_mc
mm_i:
	li	s3, 0          # j
mm_j:
	li	s4, 0          # k
	li	s6, 0          # acc
mm_k:
	# acc += A[i*20+k] * B[k*20+j]
	li	t0, 20
	mul	t1, s2, t0
	add	t1, t1, s4
	slli	t1, t1, 2
	la	t2, rv_ma
	add	t2, t2, t1
	lw	t3, 0(t2)
	mul	t1, s4, t0
	add	t1, t1, s3
	slli	t1, t1, 2
	la	t2, rv_mb
	add	t2, t2, t1
	lw	t4, 0(t2)
	mul	t3, t3, t4
	add	s6, s6, t3
	addi	s4, s4, 1
	li	t0, 20
	blt	s4, t0, mm_k
	sw	s6, 0(s5)
	addi	s5, s5, 4
	addi	s3, s3, 1
	li	t0, 20
	blt	s3, t0, mm_j
	addi	s2, s2, 1
	li	t0, 20
	blt	s2, t0, mm_i
	# checksum
	la	t0, rv_mc
	li	t1, 0
	li	t2, 400
	li	a0, 0
mm_sum:
	lw	t3, 0(t0)
	add	a0, a0, t3
	addi	t0, t0, 4
	addi	t1, t1, 1
	blt	t1, t2, mm_sum
	call	rv_print_intnl
	lw	ra, 12(sp)
	addi	sp, sp, 16
	ret
`

const rvMatrixData = `
rv_ma:	.space 1600
rv_mb:	.space 1600
rv_mc:	.space 1600
`

const rvSieveText = `
# main: sieve primes below 4000, print count and largest.
main:
	addi	sp, sp, -16
	sw	ra, 12(sp)
	la	t0, rv_sieve
	li	t1, 0
	li	t2, 4000
sv_clear:
	sb	zero, 0(t0)
	addi	t0, t0, 1
	addi	t1, t1, 1
	blt	t1, t2, sv_clear
	li	s2, 2          # candidate
	li	s3, 0          # count
	li	s4, 0          # largest
sv_outer:
	la	t0, rv_sieve
	add	t0, t0, s2
	lb	t1, 0(t0)
	bnez	t1, sv_next
	addi	s3, s3, 1
	mv	s4, s2
	# mark multiples
	add	t2, s2, s2
sv_mark:
	li	t3, 4000
	bge	t2, t3, sv_next
	la	t0, rv_sieve
	add	t0, t0, t2
	li	t4, 1
	sb	t4, 0(t0)
	add	t2, t2, s2
	j	sv_mark
sv_next:
	addi	s2, s2, 1
	li	t3, 4000
	blt	s2, t3, sv_outer
	mv	a0, s3
	call	rv_print_int
	li	a0, ' '
	call	rv_print_char
	mv	a0, s4
	call	rv_print_intnl
	lw	ra, 12(sp)
	addi	sp, sp, 16
	ret
`

const rvSieveData = `
rv_sieve:	.space 4000
`

const rvDispatchText = `
# main: walk a 24-entry routine table 1200 times, accumulating returns.
main:
	addi	sp, sp, -16
	sw	ra, 12(sp)
	sw	s2, 8(sp)
	sw	s3, 4(sp)
	sw	s4, 0(sp)
	li	s2, 0          # trip count
	li	s3, 1200
	li	s4, 0          # accumulator
dp_loop:
	li	t0, 24
	rem	t0, s2, t0
	slli	t0, t0, 2
	la	t1, rvd_table
	add	t1, t1, t0
	lw	t1, 0(t1)
	mv	a0, s2
	jalr	ra, 0(t1)
	add	s4, s4, a0
	addi	s2, s2, 1
	blt	s2, s3, dp_loop
	mv	a0, s4
	call	rv_print_intnl
	lw	s4, 0(sp)
	lw	s3, 4(sp)
	lw	s2, 8(sp)
	lw	ra, 12(sp)
	addi	sp, sp, 16
	ret
`

// rvSynthFunctions is the RV32 analogue of synthFunctions: n
// compiled-style functions whose call graph is a DAG and whose stores
// stay inside their frames and synth_scratch. The emitted text is
// genuine RV32IM code; it exists to give the RISC-V corpus realistic
// static size and byte histograms for the compression comparison.
func rvSynthFunctions(prefix string, n, bodyOps int, seed uint64, callPct int) string {
	rng := &lcg{s: seed ^ 0x9E3779B97F4A7C15}
	var w srcWriter
	for i := 0; i < n; i++ {
		emitRVSynthFunc(&w, rng, prefix, i, n, bodyOps, callPct)
	}
	return w.String()
}

func emitRVSynthFunc(w *srcWriter, rng *lcg, prefix string, i, n, bodyOps, callPct int) {
	w.s(prefix, "_fn").d(i).s(":\n")
	w.s("\taddi sp, sp, -16\n")
	w.s("\tsw ra, 12(sp)\n")
	w.s("\tsw s0, 8(sp)\n")
	w.s("\tsw s1, 4(sp)\n")
	w.s("\tla s0, synth_scratch\n")
	w.s("\tmv s1, a0\n")

	temps := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6"}
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
		switch {
		case roll < 14:
			w.s("\tlw ", a, ", ").d(rng.intn(64) * 4).s("(s0)\n")
		case roll < 22:
			w.s("\tsw ", a, ", ").d(rng.intn(64) * 4).s("(s0)\n")
		case roll < 34:
			w.s("\tadd ", a, ", ", c, ", ", d, "\n")
		case roll < 42:
			w.s("\taddi ", a, ", ", c, ", ").d(rng.intn(512) - 256).s("\n")
		case roll < 50:
			w.s("\t", []string{"and", "or", "xor", "sub"}[rng.intn(4)], " ", a, ", ", c, ", ", d, "\n")
		case roll < 58:
			w.s("\t", []string{"slli", "srli", "srai"}[rng.intn(3)], " ", a, ", ", c, ", ").d(rng.intn(31) + 1).s("\n")
		case roll < 64:
			w.s("\tslt ", a, ", ", c, ", ", d, "\n")
		case roll < 70:
			w.s("\tori ", a, ", ", c, ", 0x").x(rng.next() & 0xFF).s("\n")
		case roll < 78 && pending < 0 && op+4 < bodyOps:
			pendingLabel = label
			label++
			br := []string{"beq", "bne"}[rng.intn(2)]
			w.s("\t", br, " ", a, ", ", c, ", ", prefix, "_fn").d(i).s("_L").d(pendingLabel).s("\n")
			pending = 2 + rng.intn(3)
		case roll < 78+callPct && i+1 < n:
			callee := i + 1 + rng.intn(n-i-1)
			w.s("\tcall ", prefix, "_fn").d(callee).s("\n")
		default:
			w.s("\tlui ", a, ", 0x").x(uint32(rng.intn(1024) + 1)).s("\n")
		}
	}
	if pending >= 0 {
		w.s(prefix, "_fn").d(i).s("_L").d(pendingLabel).s(":\n")
	}
	w.s("\tmv a0, s1\n")
	w.s("\tlw ra, 12(sp)\n")
	w.s("\tlw s0, 8(sp)\n")
	w.s("\tlw s1, 4(sp)\n")
	w.s("\taddi sp, sp, 16\n")
	w.s("\tret\n")
}
