package mips

import "ccrp/internal/isa"

// ContractWords implements isa.WordEnumerator: a representative valid
// word for every operation (plus nop and negative-immediate variants),
// used by the ISA-level asm↔disasm round-trip contract test. Branch
// targets wrap modulo 2^32, so a branch round-trips even where its
// target lies below address 0, as some do at the contract test's small
// fixed pc.
func (Backend) ContractWords() []isa.Word {
	var out []isa.Word
	for _, i := range contractInsts() {
		out = append(out, isa.Word(Encode(i)))
	}
	// nop (sll $0,$0,0) and a raw BREAK with a non-zero code field.
	out = append(out, 0, isa.Word(Encode(Inst{Op: OpBREAK})|0x7<<6))
	return out
}

// contractInsts returns one (or more) sample encodings per operation.
// A unit test asserts every valid Op appears.
func contractInsts() []Inst {
	return []Inst{
		{Op: OpSLL, Rd: 8, Rt: 9, Shamt: 4},
		{Op: OpSRL, Rd: 8, Rt: 9, Shamt: 1},
		{Op: OpSRA, Rd: 8, Rt: 9, Shamt: 31},
		{Op: OpSLLV, Rd: 8, Rt: 9, Rs: 10},
		{Op: OpSRLV, Rd: 8, Rt: 9, Rs: 10},
		{Op: OpSRAV, Rd: 8, Rt: 9, Rs: 10},
		{Op: OpJR, Rs: RegRA},
		{Op: OpJALR, Rd: RegRA, Rs: 8},
		{Op: OpJALR, Rd: 9, Rs: 10},
		{Op: OpSYSCALL},
		{Op: OpBREAK},
		{Op: OpMFHI, Rd: 8},
		{Op: OpMTHI, Rs: 8},
		{Op: OpMFLO, Rd: 8},
		{Op: OpMTLO, Rs: 8},
		{Op: OpMULT, Rs: 8, Rt: 9},
		{Op: OpMULTU, Rs: 8, Rt: 9},
		{Op: OpDIV, Rs: 8, Rt: 9},
		{Op: OpDIVU, Rs: 8, Rt: 9},
		{Op: OpADD, Rd: 8, Rs: 9, Rt: 10},
		{Op: OpADDU, Rd: 8, Rs: 9, Rt: 10},
		{Op: OpSUB, Rd: 8, Rs: 9, Rt: 10},
		{Op: OpSUBU, Rd: 8, Rs: 9, Rt: 10},
		{Op: OpAND, Rd: 8, Rs: 9, Rt: 10},
		{Op: OpOR, Rd: 8, Rs: 9, Rt: 10},
		{Op: OpXOR, Rd: 8, Rs: 9, Rt: 10},
		{Op: OpNOR, Rd: 8, Rs: 9, Rt: 10},
		{Op: OpSLT, Rd: 8, Rs: 9, Rt: 10},
		{Op: OpSLTU, Rd: 8, Rs: 9, Rt: 10},

		{Op: OpBLTZ, Rs: 8, Imm: 0x10},
		{Op: OpBGEZ, Rs: 8, Imm: 0xFFF0}, // backward branch
		{Op: OpBLTZAL, Rs: 8, Imm: 0x10},
		{Op: OpBGEZAL, Rs: 8, Imm: 0x10},

		{Op: OpJ, Target: 0x40},
		{Op: OpJAL, Target: 0x44},

		{Op: OpBEQ, Rs: 8, Rt: 9, Imm: 0x10},
		{Op: OpBNE, Rs: 8, Rt: 9, Imm: 0xFFF0},
		{Op: OpBLEZ, Rs: 8, Imm: 0x10},
		{Op: OpBGTZ, Rs: 8, Imm: 0x10},
		{Op: OpADDI, Rt: 8, Rs: 9, Imm: 0xFFFB}, // -5
		{Op: OpADDIU, Rt: 8, Rs: 9, Imm: 5},
		{Op: OpSLTI, Rt: 8, Rs: 9, Imm: 100},
		{Op: OpSLTIU, Rt: 8, Rs: 9, Imm: 100},
		{Op: OpANDI, Rt: 8, Rs: 9, Imm: 0x1234},
		{Op: OpORI, Rt: 8, Rs: 9, Imm: 0xFFFF},
		{Op: OpXORI, Rt: 8, Rs: 9, Imm: 0x00FF},
		{Op: OpLUI, Rt: 8, Imm: 0x1234},

		{Op: OpLB, Rt: 8, Rs: RegSP, Imm: 4},
		{Op: OpLH, Rt: 8, Rs: RegSP, Imm: 2},
		{Op: OpLWL, Rt: 8, Rs: RegSP, Imm: 3},
		{Op: OpLW, Rt: 8, Rs: RegSP, Imm: 0xFFFC}, // -4
		{Op: OpLBU, Rt: 8, Rs: RegGP, Imm: 1},
		{Op: OpLHU, Rt: 8, Rs: RegGP, Imm: 2},
		{Op: OpLWR, Rt: 8, Rs: RegSP, Imm: 0},
		{Op: OpSB, Rt: 8, Rs: RegSP, Imm: 1},
		{Op: OpSH, Rt: 8, Rs: RegSP, Imm: 2},
		{Op: OpSWL, Rt: 8, Rs: RegSP, Imm: 3},
		{Op: OpSW, Rt: 8, Rs: RegSP, Imm: 8},
		{Op: OpSWR, Rt: 8, Rs: RegSP, Imm: 0},
		{Op: OpLWC1, Rt: 2, Rs: RegSP, Imm: 8},
		{Op: OpSWC1, Rt: 2, Rs: RegSP, Imm: 12},

		{Op: OpMFC1, Rt: 8, Rd: 2},
		{Op: OpMTC1, Rt: 8, Rd: 2},
		{Op: OpBC1F, Imm: 0x10},
		{Op: OpBC1T, Imm: 0xFFF0},

		// Branches whose targets wrap below address 0 at the contract
		// test's pc, as the PC adder wraps them modulo 2^32.
		{Op: OpBEQ, Rs: 8, Rt: 9, Imm: 0x8000},
		{Op: OpBNE, Rs: 8, Rt: 9, Imm: 0x8000},
		{Op: OpBLEZ, Rs: 8, Imm: 0x8000},
		{Op: OpBGTZ, Rs: RegA0, Imm: 0xB580}, // 0xfffee604 at pc 0x1000
		{Op: OpBLTZ, Rs: 8, Imm: 0x8000},
		{Op: OpBGEZ, Rs: 8, Imm: 0x8000},
		{Op: OpBLTZAL, Rs: 8, Imm: 0x8000},
		{Op: OpBGEZAL, Rs: 8, Imm: 0x8000},
		{Op: OpBC1F, Imm: 0x8000},
		{Op: OpBC1T, Imm: 0x8000},

		{Op: OpADDS, Shamt: 2, Rd: 4, Rt: 6},
		{Op: OpADDD, Shamt: 2, Rd: 4, Rt: 6},
		{Op: OpSUBS, Shamt: 2, Rd: 4, Rt: 6},
		{Op: OpSUBD, Shamt: 2, Rd: 4, Rt: 6},
		{Op: OpMULS, Shamt: 2, Rd: 4, Rt: 6},
		{Op: OpMULD, Shamt: 2, Rd: 4, Rt: 6},
		{Op: OpDIVS, Shamt: 2, Rd: 4, Rt: 6},
		{Op: OpDIVD, Shamt: 2, Rd: 4, Rt: 6},
		{Op: OpABSS, Shamt: 2, Rd: 4},
		{Op: OpABSD, Shamt: 2, Rd: 4},
		{Op: OpMOVS, Shamt: 2, Rd: 4},
		{Op: OpMOVD, Shamt: 2, Rd: 4},
		{Op: OpNEGS, Shamt: 2, Rd: 4},
		{Op: OpNEGD, Shamt: 2, Rd: 4},
		{Op: OpCVTSD, Shamt: 2, Rd: 4},
		{Op: OpCVTSW, Shamt: 2, Rd: 4},
		{Op: OpCVTDS, Shamt: 2, Rd: 4},
		{Op: OpCVTDW, Shamt: 2, Rd: 4},
		{Op: OpCVTWS, Shamt: 2, Rd: 4},
		{Op: OpCVTWD, Shamt: 2, Rd: 4},
		{Op: OpCEQS, Rd: 2, Rt: 4},
		{Op: OpCEQD, Rd: 2, Rt: 4},
		{Op: OpCLTS, Rd: 2, Rt: 4},
		{Op: OpCLTD, Rd: 2, Rt: 4},
		{Op: OpCLES, Rd: 2, Rt: 4},
		{Op: OpCLED, Rd: 2, Rt: 4},
	}
}
