package sim

import (
	"bytes"
	"testing"

	"ccrp/internal/asm"
	_ "ccrp/internal/riscv" // register the rv32 backend
)

// TestSelfModifyingText runs, on each ISA, a program that executes an
// instruction, overwrites it in text with a word store, executes it
// again, then patches one byte of it and executes it a third time. Each
// execution must see the word memory holds at its fetch, as it did when
// every fetch decoded its word afresh; the outputs were written then.
func TestSelfModifyingText(t *testing.T) {
	for _, tc := range []struct{ isa, src, want string }{
		{"mips", `
	.text
__start:
	li $s0, 0
patch:
	addiu $a0, $zero, 7      # 0x24040007
	li $v0, 1
	syscall
	li $a0, ' '
	li $v0, 11
	syscall
	la $t0, patch
	bnez $s0, second
	nop
	li $t1, 0x2404002A       # addiu $a0, $zero, 42
	sw $t1, 0($t0)
	li $s0, 1
	b patch
	nop
second:
	li $t2, 2
	beq $s0, $t2, done
	nop
	li $t1, 99
	sb $t1, 0($t0)           # the immediate's low byte
	li $s0, 2
	b patch
	nop
done:
	li $v0, 10
	syscall
`, "7 42 99 "},
		{"rv32", `
	.text
__start:
	li s0, 0
patch:
	addi a0, zero, 7        # 0x00700513
	li a7, 1
	ecall
	li a0, 32
	li a7, 11
	ecall
	la t0, patch
	bnez s0, second
	li t1, 0x02A00513       # addi a0, zero, 42
	sw t1, 0(t0)
	li s0, 1
	j patch
second:
	li t2, 2
	beq s0, t2, done
	li t1, 0x06300513       # addi a0, zero, 99
	srli t1, t1, 16
	sh t1, 2(t0)            # the immediate's half
	li s0, 2
	j patch
done:
	li a7, 10
	ecall
`, "7 42 99 "},
	} {
		t.Run(tc.isa, func(t *testing.T) {
			p, err := asm.AssembleFor(tc.isa, "selfmod", tc.src)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			res, err := New(p, Config{Stdout: &out, CollectTrace: true}).Run()
			if err != nil {
				t.Fatal(err)
			}
			if out.String() != tc.want {
				t.Errorf("output %q, want %q", out.String(), tc.want)
			}
			if res.Stores != 2 {
				t.Errorf("%d stores, want 2", res.Stores)
			}
		})
	}
}
