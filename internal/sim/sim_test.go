package sim

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ccrp/internal/asm"
	_ "ccrp/internal/mips" // register the default backend
)

// run assembles and executes src, returning result and console output.
func run(t *testing.T, src string) (*Result, string) {
	t.Helper()
	p, err := asm.Assemble("test", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	var out bytes.Buffer
	m := New(p, Config{Stdout: &out, CollectTrace: true, MaxInstr: 10_000_000})
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res, out.String()
}

const exitSeq = `
	li $v0, 10
	syscall
`

func TestArithmeticAndPrint(t *testing.T) {
	_, out := run(t, `
	.text
__start:
	li  $t0, 6
	li  $t1, 7
	mul $a0, $t0, $t1
	li  $v0, 1
	syscall
	li  $a0, '\n'
	li  $v0, 11
	syscall
`+exitSeq)
	if out != "42\n" {
		t.Errorf("output = %q", out)
	}
}

func TestLoopSum(t *testing.T) {
	res, out := run(t, `
	.text
__start:
	li $t0, 0      # sum
	li $t1, 1      # i
loop:
	addu $t0, $t0, $t1
	addiu $t1, $t1, 1
	blt $t1, $t2, loop   # $t2 == 0, never taken... set below
	nop
	li $t2, 101
	li $t1, 1
	li $t0, 0
loop2:
	addu $t0, $t0, $t1
	addiu $t1, $t1, 1
	blt $t1, $t2, loop2
	nop
	move $a0, $t0
	li $v0, 1
	syscall
`+exitSeq)
	if out != "5050" {
		t.Errorf("sum = %q", out)
	}
	if res.Instructions == 0 || res.Trace == nil {
		t.Error("missing trace/instructions")
	}
	if res.Instructions != uint64(res.Trace.Instructions()) {
		t.Error("trace run lengths do not sum to the instruction count")
	}
}

func TestDelaySlotSemantics(t *testing.T) {
	// The instruction after a taken branch executes (MIPS-I delay slot).
	_, out := run(t, `
	.text
__start:
	li $a0, 1
	b over
	addiu $a0, $a0, 10   # delay slot: must execute
	addiu $a0, $a0, 100  # skipped
over:
	li $v0, 1
	syscall
`+exitSeq)
	if out != "11" {
		t.Errorf("delay slot result = %q, want 11", out)
	}
}

func TestJalLinksPastDelaySlot(t *testing.T) {
	_, out := run(t, `
	.text
__start:
	jal f
	li $a0, 5      # delay slot executes before f
	li $v0, 1      # return lands here
	syscall
`+exitSeq+`
f:	jr $ra
	addiu $a0, $a0, 1
`)
	if out != "6" {
		t.Errorf("jal/jr result = %q, want 6", out)
	}
}

func TestMemoryAndData(t *testing.T) {
	_, out := run(t, `
	.data
arr:	.word 10, 20, 30, 40
msg:	.asciiz "sum="
	.text
__start:
	la  $t0, arr
	li  $t1, 0      # sum
	li  $t2, 4      # count
loop:
	lw  $t3, 0($t0)
	nop
	addu $t1, $t1, $t3
	addiu $t0, $t0, 4
	addiu $t2, $t2, -1
	bnez $t2, loop
	nop
	la $a0, msg
	li $v0, 4
	syscall
	move $a0, $t1
	li $v0, 1
	syscall
`+exitSeq)
	if out != "sum=100" {
		t.Errorf("output = %q", out)
	}
}

func TestByteHalfAccess(t *testing.T) {
	_, out := run(t, `
	.data
b:	.byte 0xFF, 1
h:	.half 0x8000
	.text
__start:
	la $t0, b
	lb $a0, 0($t0)    # -1 sign extended
	nop
	li $v0, 1
	syscall
	lbu $a0, 0($t0)   # 255
	nop
	li $v0, 1
	syscall
	la $t1, h
	lh $a0, 0($t1)    # -32768
	nop
	li $v0, 1
	syscall
	lhu $a0, 0($t1)   # 32768
	nop
	li $v0, 1
	syscall
	sb $zero, 0($t0)
	lb $a0, 0($t0)
	nop
	li $v0, 1
	syscall
`+exitSeq)
	if out != "-1255-32768327680" {
		t.Errorf("output = %q", out)
	}
}

func TestUnalignedWordViaLwlLwr(t *testing.T) {
	_, out := run(t, `
	.data
buf:	.byte 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88
	.text
__start:
	la  $t0, buf
	# Unaligned load of the word at buf+1 (LE): expect 0x55443322.
	lwr $t1, 1($t0)
	lwl $t1, 4($t0)
	nop
	srl $a0, $t1, 16    # print high half: 0x5544 = 21828
	li $v0, 1
	syscall
	andi $a0, $t1, 0xFFFF  # low half 0x3322 = 13090
	li $v0, 1
	syscall
	# Unaligned store of 0xAABBCCDD at buf+1, then read back bytes.
	li  $t2, 0xAABBCCDD
	swr $t2, 1($t0)
	swl $t2, 4($t0)
	lbu $a0, 1($t0)   # 0xDD = 221
	nop
	li $v0, 1
	syscall
	lbu $a0, 4($t0)   # 0xAA = 170
	nop
	li $v0, 1
	syscall
	lbu $a0, 0($t0)   # untouched 0x11 = 17
	nop
	li $v0, 1
	syscall
	lbu $a0, 5($t0)   # untouched 0x66 = 102
	nop
	li $v0, 1
	syscall
`+exitSeq)
	if out != "218281309022117017102" {
		t.Errorf("output = %q", out)
	}
}

func TestMultDivAndInterlock(t *testing.T) {
	res, out := run(t, `
	.text
__start:
	li $t0, 1000003
	li $t1, 97
	divu $t0, $t1
	mfhi $a0         # 1000003 % 97
	li $v0, 1
	syscall
	li $a0, ','
	li $v0, 11
	syscall
	mflo $a0         # 1000003 / 97
	li $v0, 1
	syscall
`+exitSeq)
	if out != "30,10309" {
		t.Errorf("output = %q", out)
	}
	if res.Stalls == 0 {
		t.Error("divide interlock produced no stalls")
	}
}

func TestHILOStallAccounting(t *testing.T) {
	// mfhi immediately after mult stalls ~multLatency; spacing the
	// consumer reduces the stall.
	srcTight := `
	.text
__start:
	li $t0, 1234
	li $t1, 5678
	mult $t0, $t1
	mflo $a0
` + exitSeq
	srcSpaced := `
	.text
__start:
	li $t0, 1234
	li $t1, 5678
	mult $t0, $t1
	nop
	nop
	nop
	nop
	nop
	nop
	mflo $a0
` + exitSeq
	rt, _ := run(t, srcTight)
	rs, _ := run(t, srcSpaced)
	if rt.Stalls <= rs.Stalls {
		t.Errorf("tight stalls %d should exceed spaced stalls %d", rt.Stalls, rs.Stalls)
	}
}

func TestLoadUseStall(t *testing.T) {
	rUse, _ := run(t, `
	.data
v:	.word 7
	.text
__start:
	la $t0, v
	lw $t1, 0($t0)
	addu $t2, $t1, $t1   # uses loaded value immediately
`+exitSeq)
	rNoUse, _ := run(t, `
	.data
v:	.word 7
	.text
__start:
	la $t0, v
	lw $t1, 0($t0)
	addu $t2, $t3, $t3   # independent
`+exitSeq)
	if rUse.Stalls != rNoUse.Stalls+1 {
		t.Errorf("load-use stalls: use=%d nouse=%d", rUse.Stalls, rNoUse.Stalls)
	}
}

func TestRecursionFibonacci(t *testing.T) {
	_, out := run(t, `
	.text
__start:
	li  $a0, 12
	jal fib
	nop
	move $a0, $v1
	li $v0, 1
	syscall
`+exitSeq+`
# fib(n) in $a0 -> $v1, clobbers $t0
fib:
	addiu $sp, $sp, -12
	sw $ra, 0($sp)
	sw $a0, 4($sp)
	li $v1, 1
	blt $a0, $t9, fibret    # $t9 == 0; never; placeholder
	nop
	li $t0, 2
	blt $a0, $t0, fibbase
	nop
	addiu $a0, $a0, -1
	jal fib
	nop
	sw $v1, 8($sp)
	lw $a0, 4($sp)
	nop
	addiu $a0, $a0, -2
	jal fib
	nop
	lw $t0, 8($sp)
	nop
	addu $v1, $v1, $t0
	b fibret
	nop
fibbase:
	li $v1, 1
fibret:
	lw $ra, 0($sp)
	nop
	addiu $sp, $sp, 12
	jr $ra
	nop
`)
	if out != "233" {
		t.Errorf("fib(12) = %q, want 233", out)
	}
}

func TestFloatingPoint(t *testing.T) {
	_, out := run(t, `
	.data
a:	.double 1.5
b:	.double 2.25
c:	.float 10.0
	.text
__start:
	la $t0, a
	l.d $f0, 0($t0)
	la $t0, b
	l.d $f2, 0($t0)
	add.d $f4, $f0, $f2    # 3.75
	mul.d $f4, $f4, $f2    # 8.4375
	cvt.w.d $f6, $f4       # 8
	mfc1 $a0, $f6
	li $v0, 1
	syscall
	la $t0, c
	l.s $f8, 0($t0)
	cvt.d.s $f10, $f8
	c.lt.d $f4, $f10       # 8.4375 < 10 -> true
	bc1t yes
	nop
	li $a0, 0
	b print
	nop
yes:
	li $a0, 1
print:
	li $v0, 1
	syscall
`+exitSeq)
	if out != "81" {
		t.Errorf("fp output = %q", out)
	}
}

func TestIntToFloatConversion(t *testing.T) {
	_, out := run(t, `
	.text
__start:
	li $t0, -7
	mtc1 $t0, $f0
	cvt.d.w $f2, $f0
	neg.d $f4, $f2        # 7.0
	cvt.w.d $f6, $f4
	mfc1 $a0, $f6
	li $v0, 1
	syscall
`+exitSeq)
	if out != "7" {
		t.Errorf("output = %q", out)
	}
}

func TestExitCode(t *testing.T) {
	res, _ := run(t, `
	.text
__start:
	li $a0, 3
	li $v0, 17
	syscall
`)
	if res.ExitCode != 3 {
		t.Errorf("exit code = %d", res.ExitCode)
	}
}

func TestReadInt(t *testing.T) {
	p, err := asm.Assemble("t", `
	.text
__start:
	li $v0, 5
	syscall
	move $a0, $v0
	li $v0, 1
	syscall
	li $v0, 5
	syscall
	move $a0, $v0
	li $v0, 1
	syscall
`+exitSeq)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	m := New(p, Config{Stdout: &out, Input: []int32{42}})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "420" {
		t.Errorf("read_int output = %q", out.String())
	}
}

func TestTraceFlags(t *testing.T) {
	res, _ := run(t, `
	.data
v:	.word 1
	.text
__start:
	la $t0, v
	lw $t1, 0($t0)
	sw $t1, 0($t0)
`+exitSeq)
	// The five words la (lui, ori), lw, sw and li run in one line.
	if e := res.Trace.Events[0]; e.PC != 0 || e.N < 4 || e.Loads != 1 || e.Stores != 1 {
		t.Errorf("first run = %+v, want the la, lw and sw with 1 load and 1 store", e)
	}
	if res.Trace.DataAccesses() != 2 {
		t.Errorf("trace data accesses = %d, want 2", res.Trace.DataAccesses())
	}
	if res.Loads != 1 || res.Stores != 1 {
		t.Errorf("counters loads=%d stores=%d", res.Loads, res.Stores)
	}
}

// TestRunTraceExactlySized: the trace of a finished run, whether it
// exited or faulted, holds its runs in an exactly sized slice, so a
// caller that keeps it keeps no growth slack. A second Run returns the
// same runs, and a Snapshot a copy of them that shares no memory.
func TestRunTraceExactlySized(t *testing.T) {
	for _, c := range []struct {
		src string
		cfg Config
	}{
		{".text\n__start: li $t0, 3000\nloop: addiu $t0, $t0, -1\nbnez $t0, loop\nnop" + exitSeq, Config{}},
		{".text\n__start: b __start\nnop", Config{MaxInstr: 5000}},
	} {
		p, err := asm.Assemble("t", c.src)
		if err != nil {
			t.Fatal(err)
		}
		c.cfg.CollectTrace = true
		m := New(p, c.cfg)
		res, _ := m.Run()
		if n := len(res.Trace.Events); n < 1000 || cap(res.Trace.Events) != n {
			t.Errorf("trace of %d runs has capacity %d, want %d", n, cap(res.Trace.Events), n)
		}
		again, _ := m.Run()
		snap := m.Snapshot()
		if !slices.Equal(again.Trace.Events, res.Trace.Events) || !slices.Equal(snap.Trace.Events, res.Trace.Events) {
			t.Errorf("second Run or Snapshot returned other runs")
		}
		if &snap.Trace.Events[0] == &res.Trace.Events[0] {
			t.Errorf("snapshot shares its runs with Run's trace")
		}
	}
}

func runErr(t *testing.T, src string, cfg Config) error {
	t.Helper()
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	_, err = New(p, cfg).Run()
	if err == nil {
		t.Fatal("expected an error")
	}
	return err
}

func TestErrors(t *testing.T) {
	t.Run("infinite loop guard", func(t *testing.T) {
		err := runErr(t, ".text\n__start: b __start\nnop", Config{MaxInstr: 1000})
		if !errors.Is(err, ErrMaxInstructions) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("bad address", func(t *testing.T) {
		err := runErr(t, ".text\n__start: li $t0, 0xFFFFFC\nlw $t1, 8($t0)", Config{})
		if !errors.Is(err, ErrBadAddress) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("unaligned word", func(t *testing.T) {
		err := runErr(t, ".text\n__start: li $t0, 1\nlw $t1, 0($t0)", Config{})
		if !errors.Is(err, ErrUnaligned) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("overflow trap", func(t *testing.T) {
		err := runErr(t, ".text\n__start: li $t0, 0x7FFFFFFF\nadd $t1, $t0, $t0", Config{})
		if !errors.Is(err, ErrOverflow) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("bad syscall", func(t *testing.T) {
		err := runErr(t, ".text\n__start: li $v0, 99\nsyscall", Config{})
		if !errors.Is(err, ErrBadSyscall) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("fall off text", func(t *testing.T) {
		err := runErr(t, ".text\n__start: nop", Config{})
		if !errors.Is(err, ErrBadAddress) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("break", func(t *testing.T) {
		err := runErr(t, ".text\n__start: break", Config{})
		if !errors.Is(err, ErrInvalidOp) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("double pair past $f31", func(t *testing.T) {
		for _, inst := range []string{"add.d $f31, $f0, $f0", "mov.d $f0, $f31",
			"c.lt.d $f2, $f31", "cvt.d.w $f31, $f0", "cvt.w.d $f0, $f31"} {
			err := runErr(t, ".text\n__start: "+inst, Config{})
			if !errors.Is(err, ErrInvalidOp) {
				t.Errorf("%s: err = %v", inst, err)
			}
		}
	})
	t.Run("jump into data", func(t *testing.T) {
		err := runErr(t, ".text\n__start: li $t0, 0x100000\njr $t0\nnop", Config{})
		if !errors.Is(err, ErrBadAddress) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestZeroRegisterImmutable(t *testing.T) {
	_, out := run(t, `
	.text
__start:
	li $t0, 55
	addu $zero, $t0, $t0
	move $a0, $zero
	li $v0, 1
	syscall
`+exitSeq)
	if out != "0" {
		t.Errorf("$zero = %q", out)
	}
}

func TestDivByZeroIsDeterministic(t *testing.T) {
	_, out := run(t, `
	.text
__start:
	li $t0, 5
	li $t1, 0
	div $t0, $t1
	mflo $a0
	li $v0, 1
	syscall
	mfhi $a0
	li $v0, 1
	syscall
`+exitSeq)
	if out != "00" {
		t.Errorf("div-by-zero = %q", out)
	}
}

func TestSltVariants(t *testing.T) {
	_, out := run(t, `
	.text
__start:
	li $t0, -1
	li $t1, 1
	slt $a0, $t0, $t1     # signed: -1 < 1 -> 1
	li $v0, 1
	syscall
	sltu $a0, $t0, $t1    # unsigned: 0xFFFFFFFF < 1 -> 0
	li $v0, 1
	syscall
	slti $a0, $t0, 0      # 1
	li $v0, 1
	syscall
	sltiu $a0, $t1, 2     # 1
	li $v0, 1
	syscall
`+exitSeq)
	if out != "1011" {
		t.Errorf("slt outputs = %q", out)
	}
}

func TestShiftVariants(t *testing.T) {
	_, out := run(t, `
	.text
__start:
	li $t0, 0x80000000
	sra $a0, $t0, 31      # -1
	li $v0, 1
	syscall
	srl $a0, $t0, 31      # 1
	li $v0, 1
	syscall
	li $t1, 4
	li $t2, 3
	sllv $a0, $t1, $t2    # 32
	li $v0, 1
	syscall
	srav $a0, $t0, $t2    # 0xF0000000 as signed
	li $v0, 1
	syscall
`+exitSeq)
	if out != "-1132-268435456" {
		t.Errorf("shift outputs = %q", out)
	}
}

func TestPCAccessors(t *testing.T) {
	p, err := asm.Assemble("t", ".text\n__start: nop\nnop\nli $v0, 10\nsyscall")
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, Config{})
	if m.PC() != 0 {
		t.Errorf("initial pc = %#x", m.PC())
	}
	if m.Reg(29) != asm.StackTop {
		t.Errorf("sp = %#x", m.Reg(29))
	}
	m.SetReg(5, 77)
	if m.Reg(5) != 77 {
		t.Error("SetReg/Reg failed")
	}
	m.SetReg(0, 99)
	if m.Reg(0) != 0 {
		t.Error("wrote $zero")
	}
}

func BenchmarkSimulator(b *testing.B) {
	p, err := asm.Assemble("bench", `
	.text
__start:
	li $t0, 0
	li $t1, 0
	li $t2, 100000
loop:
	addu $t1, $t1, $t0
	xor  $t3, $t1, $t0
	sll  $t4, $t3, 1
	addiu $t0, $t0, 1
	blt $t0, $t2, loop
	nop
	li $v0, 10
	syscall
`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New(p, Config{})
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(res.Instructions))
	}
}

func TestStringsHelper(t *testing.T) {
	// cstring must stop at NUL and error past memory or unterminated.
	p, err := asm.Assemble("t", `
	.data
s:	.ascii "abc"
	# no terminator before lots of nonzero data
	.space 4
	.text
__start:
	la $a0, s
	li $v0, 4
	syscall
`+exitSeq)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := New(p, Config{Stdout: &out}).Run(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "abc") {
		t.Errorf("output = %q", out.String())
	}
}

// Exhaustive unaligned access check: for every offset 0..3, LWR+LWL must
// load the unaligned word and SWR+SWL must store it, matching a byte-wise
// reference.
func TestUnalignedAllOffsets(t *testing.T) {
	for off := 0; off < 4; off++ {
		src := `
	.data
buf:	.byte 0x10, 0x21, 0x32, 0x43, 0x54, 0x65, 0x76, 0x87, 0x98, 0xA9
	.text
__start:
	la $t0, buf
	lwr $t1, ` + itoa(off) + `($t0)
	lwl $t1, ` + itoa(off+3) + `($t0)
	nop
	move $a0, $t1
	li $v0, 1
	syscall
	li $a0, ' '
	li $v0, 11
	syscall
	li $t2, 0x0DDC0FFE
	swr $t2, ` + itoa(off+4) + `($t0)
	swl $t2, ` + itoa(off+7) + `($t0)
	lwr $t3, ` + itoa(off+4) + `($t0)
	lwl $t3, ` + itoa(off+7) + `($t0)
	nop
	move $a0, $t3
	li $v0, 1
	syscall
` + exitSeq
		_, out := run(t, src)
		buf := []byte{0x10, 0x21, 0x32, 0x43, 0x54, 0x65, 0x76, 0x87, 0x98, 0xA9}
		want := int32(uint32(buf[off]) | uint32(buf[off+1])<<8 | uint32(buf[off+2])<<16 | uint32(buf[off+3])<<24)
		wantStr := itoa64(int64(want)) + " " + itoa64(int64(int32(0x0DDC0FFE)))
		if out != wantStr {
			t.Errorf("offset %d: out = %q, want %q", off, out, wantStr)
		}
	}
}

func itoa(v int) string { return itoa64(int64(v)) }

func itoa64(v int64) string {
	if v < 0 {
		return "-" + itoa64(-v)
	}
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa64(v/10) + string(rune('0'+v%10))
}

func TestDivOverflowCase(t *testing.T) {
	// INT_MIN / -1 overflows; MIPS leaves HI/LO unpredictable, but the
	// simulator must stay deterministic and not crash.
	_, out := run(t, `
	.text
__start:
	li $t0, 0x80000000
	li $t1, -1
	div $t0, $t1
	mflo $a0
	li $v0, 1
	syscall
`+exitSeq)
	if out != "-2147483648" {
		t.Errorf("INT_MIN/-1 = %q (must at least be deterministic)", out)
	}
}

func TestBltzalAndBgezal(t *testing.T) {
	_, out := run(t, `
	.text
__start:
	li $t0, -5
	bltzal $t0, sub
	nop
	move $a0, $v1
	li $v0, 1
	syscall
	li $t0, 5
	bgezal $t0, sub
	nop
	move $a0, $v1
	li $v0, 1
	syscall
`+exitSeq+`
sub:
	li $v1, 7
	jr $ra
	nop
`)
	if out != "77" {
		t.Errorf("link branches = %q", out)
	}
}

func TestMthiMtlo(t *testing.T) {
	_, out := run(t, `
	.text
__start:
	li $t0, 123
	mthi $t0
	li $t1, 456
	mtlo $t1
	mfhi $a0
	li $v0, 1
	syscall
	mflo $a0
	li $v0, 1
	syscall
`+exitSeq)
	if out != "123456" {
		t.Errorf("hi/lo moves = %q", out)
	}
}

func TestMultuUnsigned(t *testing.T) {
	_, out := run(t, `
	.text
__start:
	li $t0, 0xFFFFFFFF
	li $t1, 2
	multu $t0, $t1
	mfhi $a0         # 1
	li $v0, 1
	syscall
	mflo $a0         # 0xFFFFFFFE as signed = -2
	li $v0, 1
	syscall
	mult $t0, $t1    # signed: -1 * 2 = -2
	mfhi $a0         # -1
	li $v0, 1
	syscall
`+exitSeq)
	if out != "1-2-1" {
		t.Errorf("multu/mult = %q", out)
	}
}

func TestFPSinglePrecision(t *testing.T) {
	_, out := run(t, `
	.data
a:	.float 2.5
b:	.float 0.5
	.text
__start:
	la $t0, a
	l.s $f0, 0($t0)
	la $t0, b
	l.s $f2, 0($t0)
	div.s $f4, $f0, $f2    # 5.0
	cvt.w.s $f6, $f4
	mfc1 $a0, $f6
	li $v0, 1
	syscall
	c.le.s $f2, $f0        # true
	bc1f no
	nop
	li $a0, 1
	b pr
	nop
no:	li $a0, 0
pr:	li $v0, 1
	syscall
	sub.s $f8, $f0, $f0    # 0.0
	abs.s $f8, $f8
	c.eq.s $f8, $f8
	bc1t yes2
	nop
	li $a0, 0
	b pr2
	nop
yes2:	li $a0, 2
pr2:	li $v0, 1
	syscall
`+exitSeq)
	if out != "512" {
		t.Errorf("single-precision = %q", out)
	}
}

func TestXoriAndNor(t *testing.T) {
	_, out := run(t, `
	.text
__start:
	li $t0, 0xFF00
	xori $t1, $t0, 0x0FF0   # 0xF0F0
	move $a0, $t1
	li $v0, 1
	syscall
	nor $t2, $zero, $zero   # 0xFFFFFFFF = -1
	move $a0, $t2
	li $v0, 1
	syscall
`+exitSeq)
	if out != "61680-1" {
		t.Errorf("xori/nor = %q", out)
	}
}

func TestStoreHalfAndAlignment(t *testing.T) {
	_, out := run(t, `
	.data
buf:	.space 8
	.text
__start:
	la $t0, buf
	li $t1, 0xBEEF
	sh $t1, 2($t0)
	lhu $a0, 2($t0)
	nop
	li $v0, 1
	syscall
	lbu $a0, 2($t0)   # low byte first (LE): 0xEF = 239
	nop
	li $v0, 1
	syscall
`+exitSeq)
	if out != "48879239" {
		t.Errorf("sh/lhu = %q", out)
	}
	err := runErr(t, ".text\n__start: li $t0, 1\nsh $t1, 0($t0)", Config{})
	if !errors.Is(err, ErrUnaligned) {
		t.Errorf("unaligned sh err = %v", err)
	}
	err = runErr(t, ".text\n__start: li $t0, 1\nlh $t1, 0($t0)", Config{})
	if !errors.Is(err, ErrUnaligned) {
		t.Errorf("unaligned lh err = %v", err)
	}
	err = runErr(t, ".text\n__start: li $t0, 1\nsw $t1, 0($t0)", Config{})
	if !errors.Is(err, ErrUnaligned) {
		t.Errorf("unaligned sw err = %v", err)
	}
}

func TestFPUnaryOps(t *testing.T) {
	_, out := run(t, `
	.data
mhalf:	.float -0.5
quarter:.double 0.25
	.text
__start:
	la $t0, mhalf
	l.s $f0, 0($t0)
	abs.s $f2, $f0        # 0.5
	neg.s $f4, $f2        # -0.5
	mov.s $f6, $f4
	add.s $f6, $f6, $f2   # 0.0
	cvt.w.s $f8, $f6
	mfc1 $a0, $f8
	li $v0, 1
	syscall
	la $t0, quarter
	l.d $f10, 0($t0)
	abs.d $f12, $f10
	neg.d $f14, $f12
	mov.d $f16, $f14
	sub.d $f16, $f16, $f14  # 0.0
	cvt.w.d $f18, $f16
	mfc1 $a0, $f18
	li $v0, 1
	syscall
	# cvt.s.w and cvt.d.s and cvt.s.d round trips
	li $t1, 9
	mtc1 $t1, $f20
	cvt.s.w $f20, $f20
	cvt.d.s $f22, $f20
	cvt.s.d $f24, $f22
	cvt.w.s $f26, $f24
	mfc1 $a0, $f26
	li $v0, 1
	syscall
	# c.eq.s and c.le.d paths
	c.eq.s $f2, $f2
	bc1t eq1
	nop
	li $a0, 0
	b p1
	nop
eq1:	li $a0, 1
p1:	li $v0, 1
	syscall
	c.le.d $f12, $f10     # 0.25 <= 0.25 -> true
	bc1f no2
	nop
	li $a0, 1
	b p2
	nop
no2:	li $a0, 0
p2:	li $v0, 1
	syscall
	div.d $f28, $f10, $f12  # 1.0
	cvt.w.d $f28, $f28
	mfc1 $a0, $f28
	li $v0, 1
	syscall
`+exitSeq)
	if out != "009111" {
		t.Errorf("fp unary = %q", out)
	}
}

func TestMovePseudosExecute(t *testing.T) {
	_, out := run(t, `
	.text
__start:
	li $t0, 21
	move $t1, $t0
	not $t2, $zero        # -1
	neg $t3, $t0          # -21
	negu $t4, $t0         # -21
	addu $a0, $t1, $t3    # 0
	li $v0, 1
	syscall
	addu $a0, $t2, $t4    # -22
	li $v0, 1
	syscall
	# unsigned compare-branch family
	li $t5, 3
	li $t6, 0xFFFFFFF0
	bleu $t5, $t6, u1
	nop
	li $a0, 0
	b u2
	nop
u1:	li $a0, 7
u2:	li $v0, 1
	syscall
	bgtu $t6, $t5, u3
	nop
	li $a0, 0
	b u4
	nop
u3:	li $a0, 8
u4:	li $v0, 1
	syscall
`+exitSeq)
	if out != "0-2278" {
		t.Errorf("pseudos = %q", out)
	}
}

func TestBaseCycles(t *testing.T) {
	res, _ := run(t, `
	.text
__start:
	li $t0, 2
	li $t1, 3
	mult $t0, $t1
	mflo $a0
`+exitSeq)
	if res.BaseCycles() != res.Instructions+res.Stalls {
		t.Errorf("BaseCycles = %d, want %d", res.BaseCycles(), res.Instructions+res.Stalls)
	}
	if res.Stalls == 0 {
		t.Error("mult/mflo produced no stall")
	}
}

func TestSteppingAPI(t *testing.T) {
	p, err := asm.Assemble("t", `
	.text
__start:
	li $t0, 1
	li $t1, 2
	mult $t0, $t1
	mflo $t2
	li $v0, 10
	syscall
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, Config{})
	if m.Done() {
		t.Fatal("done before starting")
	}
	if err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if m.Instructions() != 1 || m.PC() != 4 {
		t.Errorf("after one step: icount=%d pc=%#x", m.Instructions(), m.PC())
	}
	for !m.Done() {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if m.Reg(10) != 2 { // $t2
		t.Errorf("$t2 = %d", m.Reg(10))
	}
	if m.LO() != 2 || m.HI() != 0 {
		t.Errorf("hi/lo = %d/%d", m.HI(), m.LO())
	}
	// Step after exit is a no-op.
	before := m.Instructions()
	if err := m.Step(); err != nil || m.Instructions() != before {
		t.Error("step after exit did something")
	}
	snap := m.Snapshot()
	if snap.Instructions != before {
		t.Error("snapshot inconsistent")
	}
	if w, err := m.ReadWord(0); err != nil || w == 0 {
		t.Errorf("ReadWord(0) = %#x, %v", w, err)
	}
	if _, err := m.PeekByte(1 << 25); err == nil {
		t.Error("ReadByte out of range accepted")
	}
	if b, err := m.PeekByte(0); err != nil || b == 0 {
		t.Errorf("ReadByte(0) = %#x, %v", b, err)
	}
	if m.FPR(0) != 0 {
		t.Error("FPR(0) nonzero at start")
	}
}

func TestStepHonorsMaxInstr(t *testing.T) {
	p, err := asm.Assemble("t", ".text\n__start: b __start\nnop")
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, Config{MaxInstr: 5})
	var stepErr error
	for i := 0; i < 10; i++ {
		if stepErr = m.Step(); stepErr != nil {
			break
		}
	}
	if !errors.Is(stepErr, ErrMaxInstructions) {
		t.Errorf("err = %v", stepErr)
	}
}

// TestPagedMemory: a machine allocates a page only when its program
// writes one. A minimal run stays far below the 16 MiB address space, a
// never-written word reads 0 without allocating, and the address-space
// bounds hold as they did for flat memory.
func TestPagedMemory(t *testing.T) {
	p, err := asm.Assemble("t", `
	.text
__start:
	li $t0, 0x800000
	lw $a0, 0($t0)         # never written: reads 0
	li $v0, 1
	syscall
	li $t0, 0xFFFFFC       # the last word of the address space
	li $t1, 1234
	sw $t1, 0($t0)
	lw $a0, 0($t0)
	li $v0, 1
	syscall
`+exitSeq)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := New(p, Config{Stdout: &out})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if out.String() != "01234" {
		t.Errorf("output = %q, want 0 then 1234", out.String())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("New and Run allocated %d bytes, want under 1 MiB", grew)
	}
	if m.pages[0x800000>>pageShift] != nil {
		t.Error("a load allocated a page")
	}

	for _, src := range []string{
		".text\n__start: li $t0, 0x1000000\nlw $t1, 0($t0)",
		".text\n__start: li $t0, 0xFFFFFC\nsw $t0, 4($t0)",
	} {
		if err := runErr(t, src, Config{}); !errors.Is(err, ErrBadAddress) {
			t.Errorf("%q: err = %v, want ErrBadAddress", src, err)
		}
	}
}

// TestPrintStringAcrossPages: a string whose bytes straddle a page
// boundary prints whole.
func TestPrintStringAcrossPages(t *testing.T) {
	_, out := run(t, `
	.data
pad:	.space 65532
msg:	.asciiz "straddles a page"
	.text
__start:
	la $a0, msg
	li $v0, 4
	syscall
`+exitSeq)
	if out != "straddles a page" {
		t.Errorf("output = %q", out)
	}
}
