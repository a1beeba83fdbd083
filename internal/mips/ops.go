package mips

import "ccrp/internal/isa"

// Op identifies a decoded machine operation (mnemonic level).
type Op uint8

// All supported operations.
const (
	OpInvalid Op = iota

	// SPECIAL (R-format)
	OpSLL
	OpSRL
	OpSRA
	OpSLLV
	OpSRLV
	OpSRAV
	OpJR
	OpJALR
	OpSYSCALL
	OpBREAK
	OpMFHI
	OpMTHI
	OpMFLO
	OpMTLO
	OpMULT
	OpMULTU
	OpDIV
	OpDIVU
	OpADD
	OpADDU
	OpSUB
	OpSUBU
	OpAND
	OpOR
	OpXOR
	OpNOR
	OpSLT
	OpSLTU

	// REGIMM
	OpBLTZ
	OpBGEZ
	OpBLTZAL
	OpBGEZAL

	// J-format
	OpJ
	OpJAL

	// I-format
	OpBEQ
	OpBNE
	OpBLEZ
	OpBGTZ
	OpADDI
	OpADDIU
	OpSLTI
	OpSLTIU
	OpANDI
	OpORI
	OpXORI
	OpLUI

	// Loads and stores
	OpLB
	OpLH
	OpLWL
	OpLW
	OpLBU
	OpLHU
	OpLWR
	OpSB
	OpSH
	OpSWL
	OpSW
	OpSWR
	OpLWC1
	OpSWC1

	// COP1 moves and branches
	OpMFC1
	OpMTC1
	OpBC1F
	OpBC1T

	// COP1 arithmetic
	OpADDS
	OpADDD
	OpSUBS
	OpSUBD
	OpMULS
	OpMULD
	OpDIVS
	OpDIVD
	OpABSS
	OpABSD
	OpMOVS
	OpMOVD
	OpNEGS
	OpNEGD
	OpCVTSD
	OpCVTSW
	OpCVTDS
	OpCVTDW
	OpCVTWS
	OpCVTWD
	OpCEQS
	OpCEQD
	OpCLTS
	OpCLTD
	OpCLES
	OpCLED

	numOps
)

// Class groups operations by pipeline behaviour; the simulator's stall
// model and the trace generator key off it. The MIPS classes are exactly
// the shared isa.Class set, so the type is an alias.
type Class = isa.Class

const (
	ClassALU    = isa.ClassALU    // single-cycle integer
	ClassShift  = isa.ClassShift  // single-cycle shifts
	ClassMulDiv = isa.ClassMulDiv // multi-cycle HI/LO producers
	ClassHILO   = isa.ClassHILO   // HI/LO moves (interlock consumers)
	ClassLoad   = isa.ClassLoad   // memory read (has a load delay slot)
	ClassStore  = isa.ClassStore  // memory write
	ClassBranch = isa.ClassBranch // conditional PC-relative
	ClassJump   = isa.ClassJump   // unconditional jump / jump-and-link / register jump
	ClassSys    = isa.ClassSys    // SYSCALL, BREAK
	ClassFPU    = isa.ClassFPU    // COP1 arithmetic / moves
	ClassFPBr   = isa.ClassFPBr   // COP1 condition branch
)

// layout is how an operation's word is laid out: the fields its row
// fixes (sel, and funct for COP1 arithmetic) and the fields that carry
// its operands.
type layout uint8

const (
	laySpecial layout = iota // opcode 0, funct = sel; rs, rt, rd, shamt
	layRegimm                // opcode 1, rt = sel; rs, imm
	layI                     // opcode = sel; rs, rt, imm
	layJ                     // opcode = sel; target
	layCop1                  // opcode 0x11, rs = sel; rt, rd
	layBC1                   // opcode 0x11, rs = 8, bit 16 = sel; imm
	layCop1Fmt               // opcode 0x11, rs (the format) = sel, funct; rt, rd, shamt
)

// Opcodes and COP1 rs values the layouts fix.
const (
	opcSpecial = 0x00
	opcRegimm  = 0x01
	opcCOP1    = 0x11
	rsBC1      = 0x08 // COP1 rs of BC1F/BC1T
	fmtS       = 0x10 // single precision
	fmtD       = 0x11 // double precision
	fmtW       = 0x14 // fixed-point word
)

// opInfo is one operation: its mnemonic, pipeline class, assembler
// operand form and encoding. Decode, Encode, Disassemble, String, Class
// and the assembler's machine mnemonics all derive from these rows.
type opInfo struct {
	name  string
	class Class
	form  form
	lay   layout
	sel   uint8 // the field value that selects the operation under its layout
	funct uint8 // layCop1Fmt only
}

var opTable = [numOps]opInfo{
	OpInvalid: {name: "<invalid>", class: ClassSys},

	OpSLL:     {"sll", ClassShift, formShiftI, laySpecial, 0x00, 0},
	OpSRL:     {"srl", ClassShift, formShiftI, laySpecial, 0x02, 0},
	OpSRA:     {"sra", ClassShift, formShiftI, laySpecial, 0x03, 0},
	OpSLLV:    {"sllv", ClassShift, formShiftV, laySpecial, 0x04, 0},
	OpSRLV:    {"srlv", ClassShift, formShiftV, laySpecial, 0x06, 0},
	OpSRAV:    {"srav", ClassShift, formShiftV, laySpecial, 0x07, 0},
	OpJR:      {"jr", ClassJump, formRs, laySpecial, 0x08, 0},
	OpJALR:    {"jalr", ClassJump, formJALR, laySpecial, 0x09, 0},
	OpSYSCALL: {"syscall", ClassSys, formNone, laySpecial, 0x0C, 0},
	OpBREAK:   {"break", ClassSys, formBreak, laySpecial, 0x0D, 0},
	OpMFHI:    {"mfhi", ClassHILO, formRd, laySpecial, 0x10, 0},
	OpMTHI:    {"mthi", ClassHILO, formRs, laySpecial, 0x11, 0},
	OpMFLO:    {"mflo", ClassHILO, formRd, laySpecial, 0x12, 0},
	OpMTLO:    {"mtlo", ClassHILO, formRs, laySpecial, 0x13, 0},
	OpMULT:    {"mult", ClassMulDiv, formRsRt, laySpecial, 0x18, 0},
	OpMULTU:   {"multu", ClassMulDiv, formRsRt, laySpecial, 0x19, 0},
	OpDIV:     {"div", ClassMulDiv, formDiv, laySpecial, 0x1A, 0},
	OpDIVU:    {"divu", ClassMulDiv, formDiv, laySpecial, 0x1B, 0},
	OpADD:     {"add", ClassALU, formR3, laySpecial, 0x20, 0},
	OpADDU:    {"addu", ClassALU, formR3, laySpecial, 0x21, 0},
	OpSUB:     {"sub", ClassALU, formR3, laySpecial, 0x22, 0},
	OpSUBU:    {"subu", ClassALU, formR3, laySpecial, 0x23, 0},
	OpAND:     {"and", ClassALU, formR3, laySpecial, 0x24, 0},
	OpOR:      {"or", ClassALU, formR3, laySpecial, 0x25, 0},
	OpXOR:     {"xor", ClassALU, formR3, laySpecial, 0x26, 0},
	OpNOR:     {"nor", ClassALU, formR3, laySpecial, 0x27, 0},
	OpSLT:     {"slt", ClassALU, formR3, laySpecial, 0x2A, 0},
	OpSLTU:    {"sltu", ClassALU, formR3, laySpecial, 0x2B, 0},

	OpBLTZ:   {"bltz", ClassBranch, formBranch1, layRegimm, 0x00, 0},
	OpBGEZ:   {"bgez", ClassBranch, formBranch1, layRegimm, 0x01, 0},
	OpBLTZAL: {"bltzal", ClassBranch, formBranch1, layRegimm, 0x10, 0},
	OpBGEZAL: {"bgezal", ClassBranch, formBranch1, layRegimm, 0x11, 0},

	OpJ:   {"j", ClassJump, formJump, layJ, 0x02, 0},
	OpJAL: {"jal", ClassJump, formJump, layJ, 0x03, 0},

	OpBEQ:   {"beq", ClassBranch, formBranch2, layI, 0x04, 0},
	OpBNE:   {"bne", ClassBranch, formBranch2, layI, 0x05, 0},
	OpBLEZ:  {"blez", ClassBranch, formBranch1, layI, 0x06, 0},
	OpBGTZ:  {"bgtz", ClassBranch, formBranch1, layI, 0x07, 0},
	OpADDI:  {"addi", ClassALU, formImm, layI, 0x08, 0},
	OpADDIU: {"addiu", ClassALU, formImm, layI, 0x09, 0},
	OpSLTI:  {"slti", ClassALU, formImm, layI, 0x0A, 0},
	OpSLTIU: {"sltiu", ClassALU, formImm, layI, 0x0B, 0},
	OpANDI:  {"andi", ClassALU, formImmU, layI, 0x0C, 0},
	OpORI:   {"ori", ClassALU, formImmU, layI, 0x0D, 0},
	OpXORI:  {"xori", ClassALU, formImmU, layI, 0x0E, 0},
	OpLUI:   {"lui", ClassALU, formLUI, layI, 0x0F, 0},

	OpLB:   {"lb", ClassLoad, formMem, layI, 0x20, 0},
	OpLH:   {"lh", ClassLoad, formMem, layI, 0x21, 0},
	OpLWL:  {"lwl", ClassLoad, formMem, layI, 0x22, 0},
	OpLW:   {"lw", ClassLoad, formMem, layI, 0x23, 0},
	OpLBU:  {"lbu", ClassLoad, formMem, layI, 0x24, 0},
	OpLHU:  {"lhu", ClassLoad, formMem, layI, 0x25, 0},
	OpLWR:  {"lwr", ClassLoad, formMem, layI, 0x26, 0},
	OpSB:   {"sb", ClassStore, formMem, layI, 0x28, 0},
	OpSH:   {"sh", ClassStore, formMem, layI, 0x29, 0},
	OpSWL:  {"swl", ClassStore, formMem, layI, 0x2A, 0},
	OpSW:   {"sw", ClassStore, formMem, layI, 0x2B, 0},
	OpSWR:  {"swr", ClassStore, formMem, layI, 0x2E, 0},
	OpLWC1: {"lwc1", ClassLoad, formMemFP, layI, 0x31, 0},
	OpSWC1: {"swc1", ClassStore, formMemFP, layI, 0x39, 0},

	OpMFC1: {"mfc1", ClassFPU, formCop1Move, layCop1, 0x00, 0},
	OpMTC1: {"mtc1", ClassFPU, formCop1Move, layCop1, 0x04, 0},
	OpBC1F: {"bc1f", ClassFPBr, formBranch0, layBC1, 0, 0},
	OpBC1T: {"bc1t", ClassFPBr, formBranch0, layBC1, 1, 0},

	OpADDS:  {"add.s", ClassFPU, formFP3, layCop1Fmt, fmtS, 0x00},
	OpADDD:  {"add.d", ClassFPU, formFP3, layCop1Fmt, fmtD, 0x00},
	OpSUBS:  {"sub.s", ClassFPU, formFP3, layCop1Fmt, fmtS, 0x01},
	OpSUBD:  {"sub.d", ClassFPU, formFP3, layCop1Fmt, fmtD, 0x01},
	OpMULS:  {"mul.s", ClassFPU, formFP3, layCop1Fmt, fmtS, 0x02},
	OpMULD:  {"mul.d", ClassFPU, formFP3, layCop1Fmt, fmtD, 0x02},
	OpDIVS:  {"div.s", ClassFPU, formFP3, layCop1Fmt, fmtS, 0x03},
	OpDIVD:  {"div.d", ClassFPU, formFP3, layCop1Fmt, fmtD, 0x03},
	OpABSS:  {"abs.s", ClassFPU, formFP2, layCop1Fmt, fmtS, 0x05},
	OpABSD:  {"abs.d", ClassFPU, formFP2, layCop1Fmt, fmtD, 0x05},
	OpMOVS:  {"mov.s", ClassFPU, formFP2, layCop1Fmt, fmtS, 0x06},
	OpMOVD:  {"mov.d", ClassFPU, formFP2, layCop1Fmt, fmtD, 0x06},
	OpNEGS:  {"neg.s", ClassFPU, formFP2, layCop1Fmt, fmtS, 0x07},
	OpNEGD:  {"neg.d", ClassFPU, formFP2, layCop1Fmt, fmtD, 0x07},
	OpCVTSD: {"cvt.s.d", ClassFPU, formFP2, layCop1Fmt, fmtD, 0x20},
	OpCVTSW: {"cvt.s.w", ClassFPU, formFP2, layCop1Fmt, fmtW, 0x20},
	OpCVTDS: {"cvt.d.s", ClassFPU, formFP2, layCop1Fmt, fmtS, 0x21},
	OpCVTDW: {"cvt.d.w", ClassFPU, formFP2, layCop1Fmt, fmtW, 0x21},
	OpCVTWS: {"cvt.w.s", ClassFPU, formFP2, layCop1Fmt, fmtS, 0x24},
	OpCVTWD: {"cvt.w.d", ClassFPU, formFP2, layCop1Fmt, fmtD, 0x24},
	OpCEQS:  {"c.eq.s", ClassFPU, formFPCmp, layCop1Fmt, fmtS, 0x32},
	OpCEQD:  {"c.eq.d", ClassFPU, formFPCmp, layCop1Fmt, fmtD, 0x32},
	OpCLTS:  {"c.lt.s", ClassFPU, formFPCmp, layCop1Fmt, fmtS, 0x3C},
	OpCLTD:  {"c.lt.d", ClassFPU, formFPCmp, layCop1Fmt, fmtD, 0x3C},
	OpCLES:  {"c.le.s", ClassFPU, formFPCmp, layCop1Fmt, fmtS, 0x3E},
	OpCLED:  {"c.le.d", ClassFPU, formFPCmp, layCop1Fmt, fmtD, 0x3E},
}

// String returns the assembler mnemonic for op.
func (op Op) String() string {
	if op < numOps {
		return opTable[op].name
	}
	return "<bad-op>"
}

// Class reports the pipeline class of op.
func (op Op) Class() Class {
	if op < numOps {
		return opTable[op].class
	}
	return ClassSys
}

// Valid reports whether op names a real operation.
func (op Op) Valid() bool { return op > OpInvalid && op < numOps }

// NumOps returns the count of defined operations (for exhaustive tests).
func NumOps() int { return int(numOps) }
