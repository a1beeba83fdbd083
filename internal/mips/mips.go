// Package mips implements the MIPS R2000 (MIPS-I) instruction set
// architecture: instruction word encoding and decoding, register naming,
// instruction classification, and a disassembler.
//
// One table (opTable, ops.go) is the single source of truth for the
// ISA: a row per operation gives its mnemonic, pipeline class, assembler
// operand form and encoding, and Decode, Encode, Disassemble, the
// operation names and classes and the assembler's machine mnemonics are
// all derived from it. A second table, operands (operand.go), gives each
// operand form one operand list, which the assembler backend parses and
// Disassemble prints. The assembler (internal/asm) and the functional
// simulator (internal/sim) are both built on it, which keeps encode and
// execute in agreement by construction.
//
// Coverage is the MIPS-I user-mode subset an embedded R2000 program uses:
// all integer ALU, shift, multiply/divide, load/store (including unaligned
// LWL/LWR/SWL/SWR), branches and jumps, SYSCALL/BREAK, and a COP1
// single/double-precision floating point subset (arithmetic, moves,
// conversions, compares, and FP branches).
package mips

import (
	"fmt"
	"strconv"
)

// Word is one 32-bit instruction or data word in memory order.
type Word uint32

// Register numbers for the 32 general-purpose registers.
const (
	RegZero = 0  // $zero: hardwired zero
	RegAT   = 1  // $at: assembler temporary
	RegV0   = 2  // $v0: result / syscall number
	RegV1   = 3  // $v1
	RegA0   = 4  // $a0: first argument
	RegA1   = 5  // $a1
	RegA2   = 6  // $a2
	RegA3   = 7  // $a3
	RegT0   = 8  // $t0
	RegT7   = 15 // $t7
	RegS0   = 16 // $s0
	RegS7   = 23 // $s7
	RegT8   = 24 // $t8
	RegT9   = 25 // $t9
	RegK0   = 26 // $k0: kernel reserved
	RegK1   = 27 // $k1
	RegGP   = 28 // $gp: global pointer
	RegSP   = 29 // $sp: stack pointer
	RegFP   = 30 // $fp / $s8
	RegRA   = 31 // $ra: return address
)

// regNames maps register number to conventional assembler name.
var regNames = [32]string{
	"zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
	"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
	"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
	"t8", "t9", "k0", "k1", "gp", "sp", "fp", "ra",
}

// RegName returns the conventional name ("$sp") for GPR r.
func RegName(r uint8) string {
	if r < 32 {
		return "$" + regNames[r]
	}
	return fmt.Sprintf("$?%d", r)
}

// regNumbers maps every accepted GPR name, without the '$', to its
// number: the conventional names, the alias s8, and the decimal numbers
// 0 to 31 with no sign or leading zero. fpRegNumbers maps "$f0" to
// "$f31" the same way.
var regNumbers, fpRegNumbers = func() (map[string]uint8, map[string]uint8) {
	gpr := map[string]uint8{"s8": RegFP}
	fpr := map[string]uint8{}
	for r := range uint8(32) {
		gpr[regNames[r]] = r
		gpr[strconv.Itoa(int(r))] = r
		fpr[FPRegName(r)] = r
	}
	return gpr, fpr
}()

// RegNumber resolves a register name without the leading '$' — either a
// conventional name ("sp", "t3", "s8") or a plain number ("29").
func RegNumber(name string) (uint8, bool) {
	r, ok := regNumbers[name]
	return r, ok
}

// FPRegName returns the name ("$f12") of FP register r. Out-of-range
// numbers render with the same "$?" marker RegName uses, so an invalid
// encoding can never disassemble to a plausible-looking register.
func FPRegName(r uint8) string {
	if r < 32 {
		return fmt.Sprintf("$f%d", r)
	}
	return fmt.Sprintf("$?f%d", r)
}
