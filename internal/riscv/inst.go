package riscv

import (
	"fmt"

	"ccrp/internal/isa"
)

// RV32I base opcodes (bits 6:0).
const (
	opcLUI    = 0x37
	opcAUIPC  = 0x17
	opcJAL    = 0x6F
	opcJALR   = 0x67
	opcBranch = 0x63
	opcLoad   = 0x03
	opcStore  = 0x23
	opcOpImm  = 0x13
	opcOp     = 0x33
	opcMiscM  = 0x0F
	opcSystem = 0x73
)

// Op identifies one RV32I+M operation.
type Op uint8

const (
	OpInvalid Op = iota
	OpLUI
	OpAUIPC
	OpJAL
	OpJALR
	OpBEQ
	OpBNE
	OpBLT
	OpBGE
	OpBLTU
	OpBGEU
	OpLB
	OpLH
	OpLW
	OpLBU
	OpLHU
	OpSB
	OpSH
	OpSW
	OpADDI
	OpSLTI
	OpSLTIU
	OpXORI
	OpORI
	OpANDI
	OpSLLI
	OpSRLI
	OpSRAI
	OpADD
	OpSUB
	OpSLL
	OpSLT
	OpSLTU
	OpXOR
	OpSRL
	OpSRA
	OpOR
	OpAND
	OpMUL
	OpMULH
	OpMULHSU
	OpMULHU
	OpDIV
	OpDIVU
	OpREM
	OpREMU
	OpFENCE
	OpECALL
	OpEBREAK
	numOps
)

// layout is an instruction format: the fields an operation fixes and the
// operand fields its word carries.
type layout uint8

const (
	layR     layout = iota // opcode, funct3, funct7; rd, rs1, rs2
	layI                   // opcode, funct3; rd, rs1, imm[11:0]
	layShift               // opcode, funct3, funct7; rd, rs1, shamt
	layS                   // opcode, funct3; rs1, rs2, imm[11:0]
	layB                   // opcode, funct3; rs1, rs2, imm[12:1]
	layU                   // opcode; rd, imm[31:12]
	layJ                   // opcode; rd, imm[20:1]
	laySys                 // the whole word: opcode, funct3 and, for funct7, the funct12 in bits 31:20
)

// fixedMask is the mask of the bits each layout's operations fix.
var fixedMask = [...]uint32{
	layR: 0xFE00707F, layI: 0x707F, layShift: 0xFE00707F, layS: 0x707F,
	layB: 0x707F, layU: 0x7F, layJ: 0x7F, laySys: 0xFFFFFFFF,
}

// opInfo is one operation: its mnemonic, pipeline class, assembler
// operand form and encoding. Decode, Encode, Disassemble, String, Class
// and the assembler's machine mnemonics all derive from these rows.
type opInfo struct {
	name   string
	class  isa.Class
	form   form
	lay    layout
	opc    uint8
	funct3 uint8
	funct7 uint16 // laySys: the funct12
}

var opTable = [numOps]opInfo{
	OpInvalid: {name: "invalid", class: isa.ClassSys},
	OpLUI:     {"lui", isa.ClassALU, formUpper, layU, opcLUI, 0, 0},
	OpAUIPC:   {"auipc", isa.ClassALU, formUpper, layU, opcAUIPC, 0, 0},
	OpJAL:     {"jal", isa.ClassJump, formJAL, layJ, opcJAL, 0, 0},
	OpJALR:    {"jalr", isa.ClassJump, formJALR, layI, opcJALR, 0, 0},
	OpBEQ:     {"beq", isa.ClassBranch, formBranch, layB, opcBranch, 0, 0},
	OpBNE:     {"bne", isa.ClassBranch, formBranch, layB, opcBranch, 1, 0},
	OpBLT:     {"blt", isa.ClassBranch, formBranch, layB, opcBranch, 4, 0},
	OpBGE:     {"bge", isa.ClassBranch, formBranch, layB, opcBranch, 5, 0},
	OpBLTU:    {"bltu", isa.ClassBranch, formBranch, layB, opcBranch, 6, 0},
	OpBGEU:    {"bgeu", isa.ClassBranch, formBranch, layB, opcBranch, 7, 0},
	OpLB:      {"lb", isa.ClassLoad, formLoad, layI, opcLoad, 0, 0},
	OpLH:      {"lh", isa.ClassLoad, formLoad, layI, opcLoad, 1, 0},
	OpLW:      {"lw", isa.ClassLoad, formLoad, layI, opcLoad, 2, 0},
	OpLBU:     {"lbu", isa.ClassLoad, formLoad, layI, opcLoad, 4, 0},
	OpLHU:     {"lhu", isa.ClassLoad, formLoad, layI, opcLoad, 5, 0},
	OpSB:      {"sb", isa.ClassStore, formStore, layS, opcStore, 0, 0},
	OpSH:      {"sh", isa.ClassStore, formStore, layS, opcStore, 1, 0},
	OpSW:      {"sw", isa.ClassStore, formStore, layS, opcStore, 2, 0},
	OpADDI:    {"addi", isa.ClassALU, formImm, layI, opcOpImm, 0, 0},
	OpSLTI:    {"slti", isa.ClassALU, formImm, layI, opcOpImm, 2, 0},
	OpSLTIU:   {"sltiu", isa.ClassALU, formImm, layI, opcOpImm, 3, 0},
	OpXORI:    {"xori", isa.ClassALU, formImm, layI, opcOpImm, 4, 0},
	OpORI:     {"ori", isa.ClassALU, formImm, layI, opcOpImm, 6, 0},
	OpANDI:    {"andi", isa.ClassALU, formImm, layI, opcOpImm, 7, 0},
	OpSLLI:    {"slli", isa.ClassShift, formShift, layShift, opcOpImm, 1, 0},
	OpSRLI:    {"srli", isa.ClassShift, formShift, layShift, opcOpImm, 5, 0},
	OpSRAI:    {"srai", isa.ClassShift, formShift, layShift, opcOpImm, 5, 0x20},
	OpADD:     {"add", isa.ClassALU, formR3, layR, opcOp, 0, 0},
	OpSUB:     {"sub", isa.ClassALU, formR3, layR, opcOp, 0, 0x20},
	OpSLL:     {"sll", isa.ClassShift, formR3, layR, opcOp, 1, 0},
	OpSLT:     {"slt", isa.ClassALU, formR3, layR, opcOp, 2, 0},
	OpSLTU:    {"sltu", isa.ClassALU, formR3, layR, opcOp, 3, 0},
	OpXOR:     {"xor", isa.ClassALU, formR3, layR, opcOp, 4, 0},
	OpSRL:     {"srl", isa.ClassShift, formR3, layR, opcOp, 5, 0},
	OpSRA:     {"sra", isa.ClassShift, formR3, layR, opcOp, 5, 0x20},
	OpOR:      {"or", isa.ClassALU, formR3, layR, opcOp, 6, 0},
	OpAND:     {"and", isa.ClassALU, formR3, layR, opcOp, 7, 0},
	OpMUL:     {"mul", isa.ClassMulDiv, formR3, layR, opcOp, 0, 1},
	OpMULH:    {"mulh", isa.ClassMulDiv, formR3, layR, opcOp, 1, 1},
	OpMULHSU:  {"mulhsu", isa.ClassMulDiv, formR3, layR, opcOp, 2, 1},
	OpMULHU:   {"mulhu", isa.ClassMulDiv, formR3, layR, opcOp, 3, 1},
	OpDIV:     {"div", isa.ClassMulDiv, formR3, layR, opcOp, 4, 1},
	OpDIVU:    {"divu", isa.ClassMulDiv, formR3, layR, opcOp, 5, 1},
	OpREM:     {"rem", isa.ClassMulDiv, formR3, layR, opcOp, 6, 1},
	OpREMU:    {"remu", isa.ClassMulDiv, formR3, layR, opcOp, 7, 1},
	OpFENCE:   {"fence", isa.ClassSys, formNone, layI, opcMiscM, 0, 0},
	OpECALL:   {"ecall", isa.ClassSys, formNone, laySys, opcSystem, 0, 0},
	OpEBREAK:  {"ebreak", isa.ClassSys, formNone, laySys, opcSystem, 0, 1},
}

// String returns the mnemonic.
func (o Op) String() string {
	if o < numOps {
		return opTable[o].name
	}
	return "invalid"
}

// Class returns the pipeline class.
func (o Op) Class() isa.Class {
	if o < numOps {
		return opTable[o].class
	}
	return isa.ClassSys
}

// Inst is one decoded RV32I+M instruction.
type Inst struct {
	Op  Op
	Rd  uint8
	Rs1 uint8
	Rs2 uint8
	Imm int32 // sign-extended immediate (shamt for shifts, imm20<<12 for LUI/AUIPC)
}

// immI extracts the sign-extended I-type immediate.
func immI(w uint32) int32 { return int32(w) >> 20 }

// immS extracts the sign-extended S-type immediate.
func immS(w uint32) int32 {
	return int32(w&0xFE000000)>>20 | int32(w>>7&0x1F)
}

// immB extracts the sign-extended B-type immediate.
func immB(w uint32) int32 {
	return int32(w&0x80000000)>>19 |
		int32(w<<4&0x800) | // bit 7 -> imm[11]
		int32(w>>20&0x7E0) |
		int32(w>>7&0x1E)
}

// immU extracts the U-type immediate (already shifted into place).
func immU(w uint32) int32 { return int32(w & 0xFFFFF000) }

// immJ extracts the sign-extended J-type immediate.
func immJ(w uint32) int32 {
	return int32(w&0x80000000)>>11 |
		int32(w&0x000FF000) | // imm[19:12]
		int32(w>>9&0x800) | // bit 20 -> imm[11]
		int32(w>>20&0x7FE)
}

// decodeKey gathers the bits that tell operations apart once their rows'
// other fixed bits are checked: opcode bits 6:2, funct3, and bits 30, 25
// and 20 (funct7's SUB/SRA and M-extension bits, and EBREAK's funct12).
func decodeKey(w uint32) uint32 {
	return w>>2&0x1F | w>>7&0xE0 | w>>22&0x100 | w>>16&0x200 | w>>10&0x400
}

// decoder maps each decodeKey to the one operation whose fixed bits can
// match a word with that key, and fixed holds each operation's fixed
// bits (mask) and their values (match); both are built from opTable.
var decoder, fixed = func() (d [1 << 11]Op, f [numOps]struct{ mask, match uint32 }) {
	for op := OpInvalid + 1; op < numOps; op++ {
		e := &opTable[op]
		funct7At := 25
		if e.lay == laySys {
			funct7At = 20 // the funct12
		}
		f[op].mask = fixedMask[e.lay]
		f[op].match = uint32(e.funct7)<<funct7At | uint32(e.funct3)<<12 | uint32(e.opc)
		km, kv := decodeKey(f[op].mask), decodeKey(f[op].match)
		for k := range d {
			if uint32(k)&km != kv {
				continue
			}
			if d[k] != OpInvalid {
				panic(fmt.Sprintf("riscv: %v and %v share decode key %#x", d[k], op, k))
			}
			d[k] = op
		}
	}
	return d, f
}()

// Decode decodes one 32-bit word. Invalid encodings produce OpInvalid.
// The operand fields its layout does not carry are zero.
func Decode(w uint32) Inst {
	op := decoder[decodeKey(w)]
	if op == OpInvalid || w&fixed[op].mask != fixed[op].match {
		return Inst{}
	}
	rd, rs1, rs2 := uint8(w>>7&0x1F), uint8(w>>15&0x1F), uint8(w>>20&0x1F)
	switch opTable[op].lay {
	case layR:
		return Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}
	case layI:
		return Inst{Op: op, Rd: rd, Rs1: rs1, Imm: immI(w)}
	case layShift:
		return Inst{Op: op, Rd: rd, Rs1: rs1, Imm: int32(rs2)}
	case layS:
		return Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: immS(w)}
	case layB:
		return Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: immB(w)}
	case layU:
		return Inst{Op: op, Rd: rd, Imm: immU(w)}
	case layJ:
		return Inst{Op: op, Rd: rd, Imm: immJ(w)}
	}
	return Inst{Op: op} // laySys
}

// Encode produces the 32-bit word for inst: the bits its row fixes and
// the operand fields its layout carries, registers cut to five bits and
// the immediate to its field. It panics on OpInvalid (programming error,
// same contract as the MIPS encoder).
func Encode(inst Inst) uint32 {
	if inst.Op == OpInvalid || inst.Op >= numOps {
		panic(fmt.Sprintf("riscv: cannot encode op %v", inst.Op))
	}
	rd := uint32(inst.Rd&31) << 7
	rs1 := uint32(inst.Rs1&31) << 15
	rs2 := uint32(inst.Rs2&31) << 20
	imm := uint32(inst.Imm)
	w := fixed[inst.Op].match
	switch opTable[inst.Op].lay {
	case layR:
		return w | rs2 | rs1 | rd
	case layI:
		return w | imm<<20 | rs1 | rd
	case layShift:
		return w | imm&0x1F<<20 | rs1 | rd
	case layS:
		return w | imm>>5&0x7F<<25 | rs2 | rs1 | imm&0x1F<<7
	case layB:
		return w | imm>>12&1<<31 | imm>>5&0x3F<<25 | rs2 | rs1 | imm>>1&0xF<<8 | imm>>11&1<<7
	case layU:
		return w | imm&0xFFFFF000 | rd
	case layJ:
		return w | imm>>20&1<<31 | imm>>1&0x3FF<<21 | imm>>11&1<<20 | imm>>12&0xFF<<12 | rd
	}
	return w // laySys
}

// Disassemble renders the word at pc in the syntax the assembler backend
// accepts: its operation's operand row, with branch and jal targets as
// absolute hex addresses.
func Disassemble(w uint32, pc uint32) string {
	inst := Decode(w)
	if inst.Op == OpInvalid {
		return fmt.Sprintf(".word 0x%08x", w)
	}
	var buf [40]byte
	b := append(buf[:0], inst.Op.String()...)
	sep := " "
	for _, o := range operands[opTable[inst.Op].form] {
		b = appendOperand(append(b, sep...), o, inst, pc)
		sep = ", "
	}
	return string(b)
}
