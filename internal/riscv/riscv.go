// Package riscv is the RV32I(+M) backend of the ISA abstraction layer:
// word decode/encode, disassembly, an assembler backend for internal/asm,
// an executor for internal/sim, and an RVC (compressed-instruction)
// expander. One table (opTable, inst.go) holds a row per operation with
// its mnemonic, pipeline class, assembler operand form and encoding;
// Decode, Encode, Disassemble, the operation names and classes and the
// assembler's machine mnemonics are all derived from it, and a second
// table, operands (operand.go), gives each operand form one operand list,
// which the assembler backend parses and Disassemble prints.
//
// The RVC expander is the point of the exercise: RISC-V's "C"
// extension is the ISA-level answer to the code-size problem the paper
// attacks with block-bounded Huffman compression, and having both in one
// tree lets the experiments compare CCRP ratios against native 16-bit
// encodings on identical programs.
package riscv

import (
	"fmt"
	"strconv"
	"strings"

	"ccrp/internal/isa"
)

// ABI register numbers used by the backend.
const (
	RegZero uint8 = 0
	RegRA   uint8 = 1
	RegSP   uint8 = 2
	RegGP   uint8 = 3
	RegA0   uint8 = 10
	RegA7   uint8 = 17
)

var regNames = [32]string{
	"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
	"s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
	"a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
	"s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
}

// RegName returns the ABI name of integer register r.
func RegName(r uint8) string {
	if r < 32 {
		return regNames[r]
	}
	return fmt.Sprintf("?x%d", r)
}

// FPRegName names FP register r. RV32I has no FP register file; the
// names follow the F-extension convention so debugger output stays
// well-formed.
func FPRegName(r uint8) string {
	if r < 32 {
		return fmt.Sprintf("f%d", r)
	}
	return fmt.Sprintf("?f%d", r)
}

// regNumbers maps every accepted register name to its number: the ABI
// names, the alias fp, and x0 to x31 with no sign or leading zero.
var regNumbers = func() map[string]uint8 {
	m := map[string]uint8{"fp": 8}
	for r := range uint8(32) {
		m[regNames[r]] = r
		m["x"+strconv.Itoa(int(r))] = r
	}
	return m
}()

// RegNumber resolves an ABI name, "fp", or "xN" to a register number,
// ignoring case.
func RegNumber(name string) (uint8, bool) {
	r, ok := regNumbers[name]
	if !ok {
		r, ok = regNumbers[strings.ToLower(name)]
	}
	return r, ok
}

// Backend implements the isa interfaces for RV32I+M.
type Backend struct{}

func init() { isa.Register(Backend{}) }

var (
	_ isa.ISA            = Backend{}
	_ isa.AsmBackend     = Backend{}
	_ isa.ExecBackend    = Backend{}
	_ isa.WordEnumerator = Backend{}
)

// Name implements isa.ISA.
func (Backend) Name() string { return "rv32" }

// WordBytes implements isa.ISA (text is stored as uncompressed 32-bit
// words; RVC halfwords exist only through the Expand/Compress pair).
func (Backend) WordBytes() int { return 4 }

// Decode implements isa.ISA.
func (Backend) Decode(w isa.Word, pc uint32) isa.Info {
	inst := Decode(uint32(w))
	c := inst.Op.Class()
	info := isa.Info{
		Valid:    inst.Op != OpInvalid,
		Class:    c,
		Mnemonic: inst.Op.String(),
		IsBranch: c == isa.ClassBranch,
		IsJump:   c == isa.ClassJump,
		IsLoad:   c == isa.ClassLoad,
		IsStore:  c == isa.ClassStore,
	}
	if info.IsBranch || inst.Op == OpJAL {
		info.Target, info.TargetKnown = pc+uint32(inst.Imm), true
	}
	return info
}

// Disassemble implements isa.ISA.
func (Backend) Disassemble(w isa.Word, pc uint32) string {
	return Disassemble(uint32(w), pc)
}

// RegName implements isa.ISA.
func (Backend) RegName(r uint8) string { return RegName(r) }

// FPRegName implements isa.ISA.
func (Backend) FPRegName(r uint8) string { return FPRegName(r) }

// RegNumber implements isa.ISA.
func (Backend) RegNumber(name string) (uint8, bool) { return RegNumber(name) }
