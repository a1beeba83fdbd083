// Package mips implements the MIPS R2000 (MIPS-I) instruction set
// architecture: instruction word encoding and decoding, register naming,
// instruction classification, and a disassembler.
//
// The package is the single source of truth for the ISA; the assembler
// (internal/asm) and the functional simulator (internal/sim) are both built
// on its tables, which keeps encode and execute in agreement by
// construction.
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

// Primary opcode field values (bits 31..26).
const (
	opcSpecial = 0x00
	opcRegimm  = 0x01
	opcJ       = 0x02
	opcJAL     = 0x03
	opcBEQ     = 0x04
	opcBNE     = 0x05
	opcBLEZ    = 0x06
	opcBGTZ    = 0x07
	opcADDI    = 0x08
	opcADDIU   = 0x09
	opcSLTI    = 0x0A
	opcSLTIU   = 0x0B
	opcANDI    = 0x0C
	opcORI     = 0x0D
	opcXORI    = 0x0E
	opcLUI     = 0x0F
	opcCOP1    = 0x11
	opcLB      = 0x20
	opcLH      = 0x21
	opcLWL     = 0x22
	opcLW      = 0x23
	opcLBU     = 0x24
	opcLHU     = 0x25
	opcLWR     = 0x26
	opcSB      = 0x28
	opcSH      = 0x29
	opcSWL     = 0x2A
	opcSW      = 0x2B
	opcSWR     = 0x2E
	opcLWC1    = 0x31
	opcSWC1    = 0x39
)

// SPECIAL funct field values (bits 5..0).
const (
	fnSLL     = 0x00
	fnSRL     = 0x02
	fnSRA     = 0x03
	fnSLLV    = 0x04
	fnSRLV    = 0x06
	fnSRAV    = 0x07
	fnJR      = 0x08
	fnJALR    = 0x09
	fnSYSCALL = 0x0C
	fnBREAK   = 0x0D
	fnMFHI    = 0x10
	fnMTHI    = 0x11
	fnMFLO    = 0x12
	fnMTLO    = 0x13
	fnMULT    = 0x18
	fnMULTU   = 0x19
	fnDIV     = 0x1A
	fnDIVU    = 0x1B
	fnADD     = 0x20
	fnADDU    = 0x21
	fnSUB     = 0x22
	fnSUBU    = 0x23
	fnAND     = 0x24
	fnOR      = 0x25
	fnXOR     = 0x26
	fnNOR     = 0x27
	fnSLT     = 0x2A
	fnSLTU    = 0x2B
)

// REGIMM rt field values.
const (
	riBLTZ   = 0x00
	riBGEZ   = 0x01
	riBLTZAL = 0x10
	riBGEZAL = 0x11
)

// COP1 rs (format) field values.
const (
	copMF  = 0x00 // MFC1
	copMT  = 0x04 // MTC1
	copBC  = 0x08 // BC1F/BC1T
	fmtS   = 0x10 // single precision
	fmtD   = 0x11 // double precision
	fmtW   = 0x14 // fixed-point word
	fnFADD = 0x00
	fnFSUB = 0x01
	fnFMUL = 0x02
	fnFDIV = 0x03
	fnFABS = 0x05
	fnFMOV = 0x06
	fnFNEG = 0x07
	fnCVTS = 0x20
	fnCVTD = 0x21
	fnCVTW = 0x24
	fnCEQ  = 0x32
	fnCLT  = 0x3C
	fnCLE  = 0x3E
)
