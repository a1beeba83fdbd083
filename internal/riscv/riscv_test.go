package riscv_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"ccrp/internal/asm"
	"ccrp/internal/isa"
	"ccrp/internal/riscv"
	"ccrp/internal/sim"
)

func TestDecodeEncodeRoundTrip(t *testing.T) {
	for _, w := range (riscv.Backend{}).ContractWords() {
		inst := riscv.Decode(uint32(w))
		if inst.Op == riscv.OpInvalid {
			t.Fatalf("contract word %#08x does not decode", uint32(w))
		}
		if got := riscv.Encode(inst); got != uint32(w) {
			t.Errorf("Encode(Decode(%#08x)) = %#08x", uint32(w), got)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, w := range []uint32{
		0x00000000,                 // all zero
		0xFFFFFFFF,                 // all ones
		0x0000007F,                 // unused opcode space
		0x02000013 | 1<<12 | 1<<25, // slli with funct7 != 0
		0x00007067,                 // jalr funct3 != 0
		0x00003003,                 // load funct3 = 3 (ld: RV64)
		0x00003023,                 // store funct3 = 3 (sd: RV64)
		0x00002073,                 // csrrs (unimplemented)
	} {
		if inst := riscv.Decode(w); inst.Op != riscv.OpInvalid {
			t.Errorf("Decode(%#08x) = %v, want invalid", w, inst.Op)
		}
	}
}

func TestDisassembleForms(t *testing.T) {
	cases := []struct {
		w    uint32
		pc   uint32
		want string
	}{
		{0x00C58533, 0, "add a0, a1, a2"},
		{0xFFB58513, 0, "addi a0, a1, -5"},
		{0x00812503, 0, "lw a0, 8(sp)"},
		{0x00A12423, 0, "sw a0, 8(sp)"},
		{0x00B51463, 0x1000, "bne a0, a1, 0x00001008"},
		{0x008000EF, 0x1000, "jal ra, 0x00001008"},
		{0x00850067, 0, "jalr zero, 8(a0)"},
		{0x12345537, 0, "lui a0, 0x12345"},
		{0x00000073, 0, "ecall"},
		{0x00100073, 0, "ebreak"},
		{0xFFFFFFFF, 0, ".word 0xffffffff"},
	}
	for _, c := range cases {
		if got := riscv.Disassemble(c.w, c.pc); got != c.want {
			t.Errorf("Disassemble(%#08x, %#x) = %q, want %q", c.w, c.pc, got, c.want)
		}
	}
}

func TestRegNames(t *testing.T) {
	for r := uint8(0); r < 32; r++ {
		name := riscv.RegName(r)
		if strings.HasPrefix(name, "?") {
			t.Fatalf("RegName(%d) = %q", r, name)
		}
		n, ok := riscv.RegNumber(name)
		if !ok || n != r {
			t.Errorf("RegNumber(%q) = %d, %v; want %d", name, n, ok, r)
		}
	}
	if riscv.RegName(40) != "?x40" {
		t.Errorf("RegName(40) = %q", riscv.RegName(40))
	}
	if riscv.FPRegName(40) != "?f40" {
		t.Errorf("FPRegName(40) = %q", riscv.FPRegName(40))
	}
	if n, ok := riscv.RegNumber("fp"); !ok || n != 8 {
		t.Errorf("RegNumber(fp) = %d, %v", n, ok)
	}
	if n, ok := riscv.RegNumber("x13"); !ok || n != 13 {
		t.Errorf("RegNumber(x13) = %d, %v", n, ok)
	}
	// Names are case-insensitive, but a number must be canonical decimal.
	for _, name := range []string{"X13", "ZERO", "Fp", "T0"} {
		if _, ok := riscv.RegNumber(name); !ok {
			t.Errorf("RegNumber(%q) rejected", name)
		}
	}
	for _, name := range []string{"x32", "x5junk", "x+5", "x 5", "x05", "x-0", "x", "5", "f0"} {
		if _, ok := riscv.RegNumber(name); ok {
			t.Errorf("RegNumber(%q) accepted", name)
		}
		src := "\t.text\n\taddi " + name + ", x0, 7\n"
		if _, err := asm.AssembleFor("rv32", "t.s", src); err == nil || !strings.Contains(err.Error(), "unknown register") {
			t.Errorf("addi %s, x0, 7: error %v, want an unknown register", name, err)
		}
	}
}

// TestAssembleErrors: sources the rv32 backend must reject, with an
// error that names the line.
func TestAssembleErrors(t *testing.T) {
	for _, c := range []struct{ name, src, want string }{
		{"instruction inside a word", ".text\n.byte 1\naddi x1, x0, 1\n.byte 1, 2, 3", "line 3: instruction \"addi\" at 0x1, inside a 4-byte word"},
		{"text ends inside a word", ".text\naddi x1, x0, 1\n.byte 1", "inside a 4-byte word"},
		{"instruction in data", ".data\naddi x1, x0, 1", "line 2: instruction \"addi\" outside .text"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := asm.AssembleFor("rv32", "t.s", c.src)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %v, want it to contain %q", err, c.want)
			}
		})
	}
}

// run assembles src for rv32, simulates it, and returns the console
// output and result.
func run(t *testing.T, src string) (*sim.Result, string) {
	t.Helper()
	prog, err := asm.AssembleFor("rv32", "test.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if prog.ISA != "rv32" {
		t.Fatalf("program ISA = %q, want rv32", prog.ISA)
	}
	var out bytes.Buffer
	m := sim.New(prog, sim.Config{Stdout: &out, MaxInstr: 1_000_000})
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res, out.String()
}

func TestExecSmallProgram(t *testing.T) {
	// Sum 1..10 with a loop, print, exit.
	_, out := run(t, `
	.text
__start:
	li	a1, 10
	li	a2, 0
loop:
	add	a2, a2, a1
	addi	a1, a1, -1
	bnez	a1, loop
	mv	a0, a2
	li	a7, 1
	ecall
	li	a7, 10
	ecall
`)
	if out != "55" {
		t.Errorf("output = %q, want 55", out)
	}
}

func TestExecMemoryAndCalls(t *testing.T) {
	_, out := run(t, `
	.data
msg:	.asciiz "ok\n"
vals:	.word 7, 35
	.text
__start:
	la	a0, msg
	li	a7, 4
	ecall
	la	t0, vals
	lw	a1, 0(t0)
	lw	a2, 4(t0)
	call	mul6
	li	a7, 1
	ecall
	li	a7, 10
	ecall
mul6:
	addi	sp, sp, -8
	sw	ra, 4(sp)
	mul	a0, a1, a2
	rem	a3, a0, a2
	add	a0, a0, a3
	lw	ra, 4(sp)
	addi	sp, sp, 8
	ret
`)
	if out != "ok\n245" {
		t.Errorf("output = %q, want ok-then-245", out)
	}
}

func TestExecClassCounting(t *testing.T) {
	res, _ := run(t, `
	.text
__start:
	li	a0, 6
	li	a1, 7
	mul	a0, a0, a1
	li	a7, 10
	ecall
`)
	if res.Instructions != 5 {
		t.Errorf("instructions = %d, want 5", res.Instructions)
	}
	if res.Stalls == 0 {
		t.Error("mul produced no stalls")
	}
}

func TestExecLoadUseStall(t *testing.T) {
	withUse, _ := run(t, `
	.data
v:	.word 3
	.text
__start:
	la	t0, v
	lw	a0, 0(t0)
	addi	a0, a0, 1
	li	a7, 10
	ecall
`)
	withoutUse, _ := run(t, `
	.data
v:	.word 3
	.text
__start:
	la	t0, v
	lw	a0, 0(t0)
	addi	a1, zero, 1
	li	a7, 10
	ecall
`)
	if withUse.Stalls != withoutUse.Stalls+1 {
		t.Errorf("load-use stalls: with=%d without=%d, want +1",
			withUse.Stalls, withoutUse.Stalls)
	}
}

func TestExecFaults(t *testing.T) {
	prog, err := asm.AssembleFor("rv32", "t.s", "\t.text\n__start:\n\tebreak\n")
	if err != nil {
		t.Fatal(err)
	}
	m := sim.New(prog, sim.Config{MaxInstr: 10})
	if _, err := m.Run(); err == nil {
		t.Error("ebreak did not fault")
	}
}

func TestImageCarriesISA(t *testing.T) {
	prog, err := asm.AssembleFor("rv32", "t.s", `
	.text
__start:
	li	a0, 9
	li	a7, 1
	ecall
	li	a7, 10
	ecall
`)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := prog.WriteImage(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := asm.ReadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.ISA != "rv32" {
		t.Fatalf("round-tripped ISA = %q", back.ISA)
	}
	var out bytes.Buffer
	m := sim.New(back, sim.Config{Stdout: &out, MaxInstr: 100})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "9" {
		t.Errorf("output = %q, want 9", out.String())
	}
}

func TestInfoClassification(t *testing.T) {
	be := isa.MustLookup("rv32")
	cases := []struct {
		src  string
		pc   uint32
		chk  func(isa.Info) bool
		desc string
	}{
		{"beq a0, a1, 0x20", 0x10, func(i isa.Info) bool {
			return i.IsBranch && i.TargetKnown && i.Target == 0x20 && !i.HasDelaySlot
		}, "branch target"},
		{"jal ra, 0x40", 0x10, func(i isa.Info) bool {
			return i.IsJump && i.TargetKnown && i.Target == 0x40
		}, "jal target"},
		{"jalr zero, 0(ra)", 0, func(i isa.Info) bool {
			return i.IsJump && !i.TargetKnown
		}, "jalr unknown target"},
		{"lw a0, 0(sp)", 0, func(i isa.Info) bool { return i.IsLoad }, "load"},
		{"sw a0, 0(sp)", 0, func(i isa.Info) bool { return i.IsStore }, "store"},
	}
	for _, c := range cases {
		// The line assembled at its pc, which must encode one word.
		prog, err := asm.AssembleFor("rv32", "t.s", fmt.Sprintf(".text\n.space %d\n%s\n", c.pc, c.src))
		if err != nil {
			t.Fatalf("%s: %v", c.desc, err)
		}
		if n := len(prog.Text) - int(c.pc); n != 4 {
			t.Fatalf("%s: %q assembles to %d bytes, want one word", c.desc, c.src, n)
		}
		w := isa.Word(binary.LittleEndian.Uint32(prog.Text[c.pc:]))
		info := be.Decode(w, c.pc)
		if !info.Valid || !c.chk(info) {
			t.Errorf("%s: info = %+v", c.desc, info)
		}
	}
}
