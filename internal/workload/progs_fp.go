package workload

import (
	"fmt"
	"strings"
)

// Floating-point workload cores. All constants are dyadic rationals
// (0.25, 0.5) and all inputs integer-valued, so every intermediate value
// is exactly representable and the printed checksums are bit-exact on any
// IEEE-754 platform.

// nasa7 is generated by nasa7Source: the seven-kernel numeric mix (dot,
// daxpy+scale, triad, stencil, reduction, small matmul) over double
// arrays, with the vector kernels unrolled by 16 the way a vectorizing
// Fortran compiler of the era would emit them; the unrolled bodies give
// the multi-hundred-byte kernel working sets behind the paper's NASA7
// miss rates.
const nasa7Prologue = `
	.equ NA_N, 64
	.equ NA_PASSES, 25
main:
	addiu $sp, $sp, -8
	sw $ra, 0($sp)

	# init: a[i] = i * 0.25, b[i] = i * 0.5 ; m1[i][j]=(i+j)*0.25, m2[i][j]=(i-j)*0.5
	la $t0, na_half
	l.d $f8, 0($t0)         # 0.5
	la $t0, na_quarter
	l.d $f10, 0($t0)        # 0.25
	la $t0, na_a
	la $t1, na_b
	li $t2, 0
na_init:
	mtc1 $t2, $f0
	cvt.d.w $f0, $f0
	mul.d $f2, $f0, $f10
	s.d $f2, 0($t0)
	mul.d $f2, $f0, $f8
	s.d $f2, 0($t1)
	addiu $t0, $t0, 8
	addiu $t1, $t1, 8
	addiu $t2, $t2, 1
	li $t3, NA_N
	blt $t2, $t3, na_init
	nop
	la $t0, na_m1
	la $t1, na_m2
	li $t2, 0               # i
na_minit_i:
	li $t3, 0               # j
na_minit_j:
	addu $t4, $t2, $t3
	mtc1 $t4, $f0
	cvt.d.w $f0, $f0
	mul.d $f2, $f0, $f10
	s.d $f2, 0($t0)
	subu $t4, $t2, $t3
	mtc1 $t4, $f0
	cvt.d.w $f0, $f0
	mul.d $f2, $f0, $f8
	s.d $f2, 0($t1)
	addiu $t0, $t0, 8
	addiu $t1, $t1, 8
	addiu $t3, $t3, 1
	li $t5, 8
	blt $t3, $t5, na_minit_j
	nop
	addiu $t2, $t2, 1
	blt $t2, $t5, na_minit_i
	nop

	# $f12 = running checksum
	mtc1 $zero, $f12
	cvt.d.w $f12, $f12
	li $s0, 0               # pass
na_pass:
`

const nasa7Matmul = `
	# kernel 7: 8x8 matmul m3 = m1*m2, fold m3[0][0] into the checksum
	li $t5, 0               # i
na_mm_i:
	li $t6, 0               # j
na_mm_j:
	mtc1 $zero, $f4
	cvt.d.w $f4, $f4
	li $t7, 0               # k
	sll $t0, $t5, 6         # i*8*8
	la $t1, na_m1
	addu $t1, $t1, $t0      # &m1[i][0]
	la $t2, na_m2
	sll $t3, $t6, 3
	addu $t2, $t2, $t3      # &m2[0][j]
na_mm_k:
	l.d $f0, 0($t1)
	l.d $f2, 0($t2)
	mul.d $f0, $f0, $f2
	add.d $f4, $f4, $f0
	addiu $t1, $t1, 8
	addiu $t2, $t2, 64
	addiu $t7, $t7, 1
	li $t3, 8
	blt $t7, $t3, na_mm_k
	nop
	sll $t0, $t5, 6
	la $t1, na_m3
	addu $t1, $t1, $t0
	sll $t3, $t6, 3
	addu $t1, $t1, $t3
	s.d $f4, 0($t1)
	addiu $t6, $t6, 1
	li $t3, 8
	blt $t6, $t3, na_mm_j
	nop
	addiu $t5, $t5, 1
	blt $t5, $t3, na_mm_i
	nop
	la $t1, na_m3
	l.d $f0, 0($t1)
	mul.d $f0, $f0, $f10
	add.d $f12, $f12, $f0
`

const nasa7Epilogue = `
	addiu $s0, $s0, 1
	li $t3, NA_PASSES
	blt $s0, $t3, na_pass
	nop

	# print trunc(checksum * 2^-10) to keep it in int32 range
	mul.d $f12, $f12, $f10
	mul.d $f12, $f12, $f10
	mul.d $f12, $f12, $f10
	mul.d $f12, $f12, $f10
	mul.d $f12, $f12, $f10
	cvt.w.d $f0, $f12
	mfc1 $a0, $f0
	jal rt_print_intnl
	nop
	lw $ra, 0($sp)
	nop
	addiu $sp, $sp, 8
	jr $ra
	nop
`

const nasa7Unroll = 16

// nasa7Source assembles the full nasa7 core with unrolled vector kernels.
func nasa7Source() string {
	var b strings.Builder
	b.WriteString(nasa7Prologue)

	// kernel 1: dot product, f4 accumulator.
	b.WriteString("\t# kernel 1: dot product (unrolled)\n")
	b.WriteString("\tla $t0, na_a\n\tla $t1, na_b\n\tli $t2, 0\n")
	b.WriteString("\tmtc1 $zero, $f4\n\tcvt.d.w $f4, $f4\nna_dot:\n")
	for k := 0; k < nasa7Unroll; k++ {
		fmt.Fprintf(&b, "\tl.d $f0, %d($t0)\n\tl.d $f2, %d($t1)\n\tmul.d $f0, $f0, $f2\n\tadd.d $f4, $f4, $f0\n", 8*k, 8*k)
	}
	fmt.Fprintf(&b, "\taddiu $t0, $t0, %d\n\taddiu $t1, $t1, %d\n\taddiu $t2, $t2, %d\n", 8*nasa7Unroll, 8*nasa7Unroll, nasa7Unroll)
	b.WriteString("\tli $t3, NA_N\n\tblt $t2, $t3, na_dot\n\tnop\n")
	b.WriteString("\tadd.d $f12, $f12, $f4\n")

	// kernel 2+3: daxpy b += 0.5*a fused with a = 0.25*b.
	b.WriteString("\t# kernels 2+3: daxpy and rescale (unrolled)\n")
	b.WriteString("\tla $t0, na_a\n\tla $t1, na_b\n\tli $t2, 0\nna_daxpy:\n")
	for k := 0; k < nasa7Unroll; k++ {
		fmt.Fprintf(&b, "\tl.d $f0, %d($t0)\n\tl.d $f2, %d($t1)\n\tmul.d $f0, $f0, $f8\n\tadd.d $f2, $f2, $f0\n\ts.d $f2, %d($t1)\n\tmul.d $f0, $f2, $f10\n\ts.d $f0, %d($t0)\n", 8*k, 8*k, 8*k, 8*k)
	}
	fmt.Fprintf(&b, "\taddiu $t0, $t0, %d\n\taddiu $t1, $t1, %d\n\taddiu $t2, $t2, %d\n", 8*nasa7Unroll, 8*nasa7Unroll, nasa7Unroll)
	b.WriteString("\tli $t3, NA_N\n\tblt $t2, $t3, na_daxpy\n\tnop\n")

	// kernel 4: triad c = a + 0.5*b.
	b.WriteString("\t# kernel 4: triad (unrolled)\n")
	b.WriteString("\tla $t0, na_a\n\tla $t1, na_b\n\tla $t4, na_c\n\tli $t2, 0\nna_triad:\n")
	for k := 0; k < nasa7Unroll; k++ {
		fmt.Fprintf(&b, "\tl.d $f0, %d($t0)\n\tl.d $f2, %d($t1)\n\tmul.d $f2, $f2, $f8\n\tadd.d $f0, $f0, $f2\n\ts.d $f0, %d($t4)\n", 8*k, 8*k, 8*k)
	}
	fmt.Fprintf(&b, "\taddiu $t0, $t0, %d\n\taddiu $t1, $t1, %d\n\taddiu $t4, $t4, %d\n\taddiu $t2, $t2, %d\n", 8*nasa7Unroll, 8*nasa7Unroll, 8*nasa7Unroll, nasa7Unroll)
	b.WriteString("\tli $t3, NA_N\n\tblt $t2, $t3, na_triad\n\tnop\n")

	// kernel 5: stencil c[i] = 0.25*(c[i-1]+c[i]+c[i+1]), unrolled by 8.
	b.WriteString("\t# kernel 5: three-point stencil (unrolled)\n")
	b.WriteString("\tla $t0, na_c\n\taddiu $t0, $t0, 8\n\tli $t2, 1\nna_sten:\n")
	for k := 0; k < 8; k++ {
		fmt.Fprintf(&b, "\tl.d $f0, %d($t0)\n\tl.d $f2, %d($t0)\n\tl.d $f4, %d($t0)\n\tadd.d $f0, $f0, $f2\n\tadd.d $f0, $f0, $f4\n\tmul.d $f0, $f0, $f10\n\ts.d $f0, %d($t0)\n", 8*k-8, 8*k, 8*k+8, 8*k)
	}
	b.WriteString("\taddiu $t0, $t0, 64\n\taddiu $t2, $t2, 8\n")
	b.WriteString("\tli $t3, NA_N-8\n\tblt $t2, $t3, na_sten\n\tnop\n")

	// kernel 6: reduce c into the checksum.
	b.WriteString("\t# kernel 6: reduction (unrolled)\n")
	b.WriteString("\tla $t0, na_c\n\tli $t2, 0\n\tmtc1 $zero, $f4\n\tcvt.d.w $f4, $f4\nna_red:\n")
	for k := 0; k < nasa7Unroll; k++ {
		fmt.Fprintf(&b, "\tl.d $f0, %d($t0)\n\tadd.d $f4, $f4, $f0\n", 8*k)
	}
	fmt.Fprintf(&b, "\taddiu $t0, $t0, %d\n\taddiu $t2, $t2, %d\n", 8*nasa7Unroll, nasa7Unroll)
	b.WriteString("\tli $t3, NA_N\n\tblt $t2, $t3, na_red\n\tnop\n")
	b.WriteString("\tmul.d $f4, $f4, $f10\n\tadd.d $f12, $f12, $f4\n")

	b.WriteString(nasa7Matmul)
	b.WriteString(nasa7Epilogue)
	return b.String()
}

const nasa7Data = `
	.align 3
na_a:
	.space 512
na_b:
	.space 512
na_c:
	.space 512
na_m1:
	.space 512
na_m2:
	.space 512
na_m3:
	.space 512
na_half:
	.double 0.5
na_quarter:
	.double 0.25
`

// nasa1: single numeric kernel — red-black style 1D smoothing over a
// double vector (the Table 5 companion workload).
const nasa1Text = `
	.equ N1_N, 256
	.equ N1_PASSES, 60
main:
	addiu $sp, $sp, -8
	sw $ra, 0($sp)
	la $t0, n1_half
	l.d $f8, 0($t0)
	# init u[i] = i & 15
	la $t0, n1_u
	li $t2, 0
n1_init:
	andi $t3, $t2, 15
	mtc1 $t3, $f0
	cvt.d.w $f0, $f0
	s.d $f0, 0($t0)
	addiu $t0, $t0, 8
	addiu $t2, $t2, 1
	li $t4, N1_N
	blt $t2, $t4, n1_init
	nop
	li $s0, 0
n1_pass:
	la $t0, n1_u
	li $t2, 1
n1_sweep:
	sll $t1, $t2, 3
	addu $t1, $t0, $t1
	l.d $f0, -8($t1)
	l.d $f2, 8($t1)
	add.d $f0, $f0, $f2
	mul.d $f0, $f0, $f8
	s.d $f0, 0($t1)
	addiu $t2, $t2, 1
	li $t4, N1_N-1
	blt $t2, $t4, n1_sweep
	nop
	addiu $s0, $s0, 1
	li $t4, N1_PASSES
	blt $s0, $t4, n1_pass
	nop
	# checksum = trunc(sum u * 64)
	la $t0, n1_u
	li $t2, 0
	mtc1 $zero, $f4
	cvt.d.w $f4, $f4
n1_sum:
	l.d $f0, 0($t0)
	add.d $f4, $f4, $f0
	addiu $t0, $t0, 8
	addiu $t2, $t2, 1
	li $t4, N1_N
	blt $t2, $t4, n1_sum
	nop
	li $t5, 64
	mtc1 $t5, $f0
	cvt.d.w $f0, $f0
	mul.d $f4, $f4, $f0
	cvt.w.d $f0, $f4
	mfc1 $a0, $f0
	jal rt_print_intnl
	nop
	lw $ra, 0($sp)
	nop
	addiu $sp, $sp, 8
	jr $ra
	nop
`

const nasa1Data = `
	.align 3
n1_u:
	.space 2048
n1_half:
	.double 0.5
`

// tomcatv: vectorized mesh generation flavor — Gauss-Seidel relaxation on
// a 24x24 double grid.
const tomcatvText = `
	.equ TCN, 24
	.equ TC_PASSES, 30
main:
	addiu $sp, $sp, -8
	sw $ra, 0($sp)
	la $t0, tc_quarter
	l.d $f10, 0($t0)
	# init u[i][j] = i*j
	la $t0, tc_u
	li $t2, 0
tc_init_i:
	li $t3, 0
tc_init_j:
	mul $t4, $t2, $t3
	mtc1 $t4, $f0
	cvt.d.w $f0, $f0
	s.d $f0, 0($t0)
	addiu $t0, $t0, 8
	addiu $t3, $t3, 1
	li $t5, TCN
	blt $t3, $t5, tc_init_j
	nop
	addiu $t2, $t2, 1
	blt $t2, $t5, tc_init_i
	nop
	li $s0, 0
tc_pass:
	li $t2, 1               # i
tc_i:
	li $t3, 1               # j
tc_j:
	# &u[i][j] = tc_u + (i*TCN + j)*8
	li $t5, TCN
	mul $t4, $t2, $t5
	addu $t4, $t4, $t3
	sll $t4, $t4, 3
	la $t6, tc_u
	addu $t4, $t6, $t4
	l.d $f0, -8($t4)        # u[i][j-1]
	l.d $f2, 8($t4)         # u[i][j+1]
	add.d $f0, $f0, $f2
	l.d $f2, -192($t4)      # u[i-1][j]
	add.d $f0, $f0, $f2
	l.d $f2, 192($t4)       # u[i+1][j]
	add.d $f0, $f0, $f2
	mul.d $f0, $f0, $f10
	s.d $f0, 0($t4)
	addiu $t3, $t3, 1
	li $t5, TCN-1
	blt $t3, $t5, tc_j
	nop
	addiu $t2, $t2, 1
	blt $t2, $t5, tc_i
	nop
	addiu $s0, $s0, 1
	li $t5, TC_PASSES
	blt $s0, $t5, tc_pass
	nop
	# checksum = trunc(sum * 16)
	la $t0, tc_u
	li $t2, 0
	mtc1 $zero, $f4
	cvt.d.w $f4, $f4
	li $t5, TCN*TCN
tc_sum:
	l.d $f0, 0($t0)
	add.d $f4, $f4, $f0
	addiu $t0, $t0, 8
	addiu $t2, $t2, 1
	blt $t2, $t5, tc_sum
	nop
	li $t6, 16
	mtc1 $t6, $f0
	cvt.d.w $f0, $f0
	mul.d $f4, $f4, $f0
	cvt.w.d $f0, $f4
	mfc1 $a0, $f0
	jal rt_print_intnl
	nop
	lw $ra, 0($sp)
	nop
	addiu $sp, $sp, 8
	jr $ra
	nop
`

const tomcatvData = `
	.align 3
tc_u:
	.space 4608
tc_quarter:
	.double 0.25
`

// fpppp: quantum chemistry flavor — one huge straight-line basic block
// (~420 instructions, ~1.7 KB) executed in a loop, dense with embedded
// addressing constants. The block thrashes a 1 KB direct-mapped cache and
// fits entirely from 2 KB up (the paper's fpppp cliff), and its
// spread-out constant bytes defeat the preselected code (the paper's
// noted exception in Figure 5's discussion).
const fpppppLoop = `
	.equ FP_PASSES, 250
main:
	addiu $sp, $sp, -8
	sw $ra, 0($sp)
	li $s0, 0
fp_loop:
	jal fp_body
	nop
	addiu $s0, $s0, 1
	li $t9, FP_PASSES
	blt $s0, $t9, fp_loop
	nop
	xor $a0, $t0, $t1
	xor $a0, $a0, $t2
	xor $a0, $a0, $t3
	srl $a0, $a0, 1
	jal rt_print_intnl
	nop
	lw $ra, 0($sp)
	nop
	addiu $sp, $sp, 8
	jr $ra
	nop
`

// synthStraightLine emits one giant branch-free function: the fpppp basic
// block. Only integer temporaries, FP even registers, and the shared
// scratch array are touched, so repeated execution is deterministic.
func synthStraightLine(name string, ops int, seed uint64) string {
	rng := &lcg{s: seed ^ 0xD1B54A32D192ED03}
	var w srcWriter
	w.s(name, ":\n")
	w.s("\tla $t8, synth_scratch\n")
	// Compiled straight-line code reuses a small register set and a small
	// pool of addressing constants; the constants themselves carry the
	// "byte values different from typical R2000 code" the paper blames
	// for fpppp's poor preselected compression.
	temps := []string{"$t0", "$t1", "$t2"}
	fregs := []int{0, 2, 4, 6}
	consts := make([]uint32, 8)
	for i := range consts {
		consts[i] = rng.next()
	}
	// Real straight-line FP code walks its operands sequentially through
	// memory; a rolling offset keeps the load/store immediates as
	// repetitive as a compiler's would be.
	offset := 0
	nextOff := func() int {
		offset = (offset + 8) % 128
		return offset
	}
	for op := 0; op < ops; op++ {
		a := temps[rng.intn(len(temps))]
		c := temps[rng.intn(len(temps))]
		switch r := rng.intn(100); {
		case r < 12: // addressing constant from the pool
			k := consts[rng.intn(len(consts))]
			w.s("\tlui ", a, ", 0x").x4(k >> 16).s("\n")
			w.s("\tori ", a, ", ", a, ", 0x").x4(k & 0xFFFF).s("\n")
		case r < 46:
			f1, f2, f3 := fregs[rng.intn(4)], fregs[rng.intn(4)], fregs[rng.intn(4)]
			mn := []string{"add.d", "mul.d", "sub.d"}[rng.intn(3)]
			w.s("\t", mn, " ").fp3(f1, f2, f3)
		case r < 60:
			w.s("\tl.d $f").d(fregs[rng.intn(4)]).s(", ").d(nextOff()).s("($t8)\n")
		case r < 68:
			w.s("\ts.d $f").d(fregs[rng.intn(4)]).s(", ").d(nextOff()).s("($t8)\n")
		case r < 86:
			w.s("\taddu ", a, ", ", c, ", ", temps[rng.intn(len(temps))], "\n")
		default:
			w.s("\txor ", a, ", ", c, ", ", temps[rng.intn(len(temps))], "\n")
		}
	}
	w.s("\tjr $ra\n\tnop\n")
	return w.String()
}
