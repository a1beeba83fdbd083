package riscv

import "ccrp/internal/isa"

// ContractWords implements isa.WordEnumerator: a representative valid
// encoding of every operation with varied fields.
func (Backend) ContractWords() []isa.Word {
	insts := []Inst{
		{Op: OpLUI, Rd: 10, Imm: 0x12345 << 12},
		{Op: OpLUI, Rd: 31, Imm: -1 << 12}, // hi20 = 0xFFFFF
		{Op: OpAUIPC, Rd: 5, Imm: 0x00400 << 12},
		{Op: OpJAL, Rd: RegRA, Imm: 0x40},
		{Op: OpJAL, Rd: RegZero, Imm: -0x10},
		{Op: OpJALR, Rd: RegRA, Rs1: 10, Imm: 8},
		{Op: OpJALR, Rs1: RegRA},
		{Op: OpBEQ, Rs1: 10, Rs2: 11, Imm: 0x10},
		{Op: OpBNE, Rs1: 10, Rs2: 11, Imm: -0x10},
		{Op: OpBLT, Rs1: 8, Rs2: 9, Imm: 0x40},
		{Op: OpBGE, Rs1: 8, Rs2: 9, Imm: -0x40},
		{Op: OpBLTU, Rs1: 12, Rs2: 13, Imm: 0x100},
		{Op: OpBGEU, Rs1: 12, Rs2: 13, Imm: -0x100},
		{Op: OpLB, Rd: 10, Rs1: 2, Imm: -4},
		{Op: OpLH, Rd: 10, Rs1: 2, Imm: 2},
		{Op: OpLW, Rd: 10, Rs1: 2, Imm: 8},
		{Op: OpLBU, Rd: 11, Rs1: 3, Imm: 1},
		{Op: OpLHU, Rd: 11, Rs1: 3, Imm: 6},
		{Op: OpSB, Rs2: 10, Rs1: 2, Imm: -1},
		{Op: OpSH, Rs2: 10, Rs1: 2, Imm: 2},
		{Op: OpSW, Rs2: 10, Rs1: 2, Imm: 12},
		{Op: OpADDI, Rd: 10, Rs1: 11, Imm: -5},
		{Op: OpADDI}, // nop
		{Op: OpSLTI, Rd: 10, Rs1: 11, Imm: 7},
		{Op: OpSLTIU, Rd: 10, Rs1: 11, Imm: 1},
		{Op: OpXORI, Rd: 10, Rs1: 11, Imm: -1},
		{Op: OpORI, Rd: 10, Rs1: 11, Imm: 0xFF},
		{Op: OpANDI, Rd: 10, Rs1: 11, Imm: 0x0F},
		{Op: OpSLLI, Rd: 10, Rs1: 11, Imm: 3},
		{Op: OpSRLI, Rd: 10, Rs1: 11, Imm: 17},
		{Op: OpSRAI, Rd: 10, Rs1: 11, Imm: 31},
		{Op: OpADD, Rd: 10, Rs1: 11, Rs2: 12},
		{Op: OpSUB, Rd: 10, Rs1: 11, Rs2: 12},
		{Op: OpSLL, Rd: 13, Rs1: 14, Rs2: 15},
		{Op: OpSLT, Rd: 13, Rs1: 14, Rs2: 15},
		{Op: OpSLTU, Rd: 13, Rs1: 14, Rs2: 15},
		{Op: OpXOR, Rd: 16, Rs1: 17, Rs2: 18},
		{Op: OpSRL, Rd: 16, Rs1: 17, Rs2: 18},
		{Op: OpSRA, Rd: 16, Rs1: 17, Rs2: 18},
		{Op: OpOR, Rd: 19, Rs1: 20, Rs2: 21},
		{Op: OpAND, Rd: 19, Rs1: 20, Rs2: 21},
		{Op: OpMUL, Rd: 10, Rs1: 11, Rs2: 12},
		{Op: OpMULH, Rd: 10, Rs1: 11, Rs2: 12},
		{Op: OpMULHSU, Rd: 10, Rs1: 11, Rs2: 12},
		{Op: OpMULHU, Rd: 10, Rs1: 11, Rs2: 12},
		{Op: OpDIV, Rd: 13, Rs1: 14, Rs2: 15},
		{Op: OpDIVU, Rd: 13, Rs1: 14, Rs2: 15},
		{Op: OpREM, Rd: 13, Rs1: 14, Rs2: 15},
		{Op: OpREMU, Rd: 13, Rs1: 14, Rs2: 15},
		{Op: OpFENCE},
		{Op: OpECALL},
		{Op: OpEBREAK},
	}
	words := make([]isa.Word, len(insts))
	for i, inst := range insts {
		words[i] = isa.Word(Encode(inst))
	}
	return words
}
