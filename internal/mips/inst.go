package mips

import "fmt"

// Inst is a decoded instruction. The register fields hold the raw bit
// fields by position: Rs = bits 25..21, Rt = 20..16, Rd = 15..11,
// Shamt = 10..6. For COP1 arithmetic the convention is ft = Rt, fs = Rd,
// fd = Shamt (use the Ft/Fs/Fd accessors).
type Inst struct {
	Raw    Word
	Op     Op
	Rs     uint8
	Rt     uint8
	Rd     uint8
	Shamt  uint8
	Imm    uint16 // I-format immediate, raw
	Target uint32 // J-format 26-bit target field
}

// SImm returns the sign-extended immediate.
func (i Inst) SImm() int32 { return int32(int16(i.Imm)) }

// ZImm returns the zero-extended immediate.
func (i Inst) ZImm() uint32 { return uint32(i.Imm) }

// Ft, Fs, Fd are the COP1 register fields.
func (i Inst) Ft() uint8 { return i.Rt }
func (i Inst) Fs() uint8 { return i.Rd }
func (i Inst) Fd() uint8 { return i.Shamt }

// BranchTarget returns the branch destination given the address of the
// branch instruction (target is relative to the delay-slot instruction).
func (i Inst) BranchTarget(pc uint32) uint32 {
	return pc + 4 + uint32(i.SImm())<<2
}

// JumpTarget returns the absolute destination of a J/JAL at address pc.
func (i Inst) JumpTarget(pc uint32) uint32 {
	return (pc+4)&0xF0000000 | i.Target<<2
}

// IsBranch reports whether the instruction is a conditional branch
// (including FP condition branches).
func (i Inst) IsBranch() bool {
	c := i.Op.Class()
	return c == ClassBranch || c == ClassFPBr
}

// IsJump reports whether the instruction unconditionally transfers control.
func (i Inst) IsJump() bool { return i.Op.Class() == ClassJump }

// HasDelaySlot reports whether the following instruction executes in the
// branch delay slot (MIPS-I: all branches and jumps).
func (i Inst) HasDelaySlot() bool { return i.IsBranch() || i.IsJump() }

// IsLoad reports whether the instruction reads data memory.
func (i Inst) IsLoad() bool { return i.Op.Class() == ClassLoad }

// IsStore reports whether the instruction writes data memory.
func (i Inst) IsStore() bool { return i.Op.Class() == ClassStore }

// IsMemOp reports whether the instruction accesses data memory.
func (i Inst) IsMemOp() bool { return i.IsLoad() || i.IsStore() }

// Decode decodes a raw instruction word. Unrecognized encodings decode to
// Op == OpInvalid with the fields still split out.
func Decode(w Word) Inst {
	i := Inst{
		Raw:    w,
		Rs:     uint8(w >> 21 & 0x1F),
		Rt:     uint8(w >> 16 & 0x1F),
		Rd:     uint8(w >> 11 & 0x1F),
		Shamt:  uint8(w >> 6 & 0x1F),
		Imm:    uint16(w & 0xFFFF),
		Target: uint32(w & 0x03FFFFFF),
	}
	opc := uint8(w >> 26)
	switch opc {
	case opcSpecial:
		i.Op = specialOp(uint8(w & 0x3F))
	case opcRegimm:
		switch i.Rt {
		case riBLTZ:
			i.Op = OpBLTZ
		case riBGEZ:
			i.Op = OpBGEZ
		case riBLTZAL:
			i.Op = OpBLTZAL
		case riBGEZAL:
			i.Op = OpBGEZAL
		}
	case opcJ:
		i.Op = OpJ
	case opcJAL:
		i.Op = OpJAL
	case opcBEQ:
		i.Op = OpBEQ
	case opcBNE:
		i.Op = OpBNE
	case opcBLEZ:
		i.Op = OpBLEZ
	case opcBGTZ:
		i.Op = OpBGTZ
	case opcADDI:
		i.Op = OpADDI
	case opcADDIU:
		i.Op = OpADDIU
	case opcSLTI:
		i.Op = OpSLTI
	case opcSLTIU:
		i.Op = OpSLTIU
	case opcANDI:
		i.Op = OpANDI
	case opcORI:
		i.Op = OpORI
	case opcXORI:
		i.Op = OpXORI
	case opcLUI:
		i.Op = OpLUI
	case opcCOP1:
		i.Op = cop1Op(w)
	case opcLB:
		i.Op = OpLB
	case opcLH:
		i.Op = OpLH
	case opcLWL:
		i.Op = OpLWL
	case opcLW:
		i.Op = OpLW
	case opcLBU:
		i.Op = OpLBU
	case opcLHU:
		i.Op = OpLHU
	case opcLWR:
		i.Op = OpLWR
	case opcSB:
		i.Op = OpSB
	case opcSH:
		i.Op = OpSH
	case opcSWL:
		i.Op = OpSWL
	case opcSW:
		i.Op = OpSW
	case opcSWR:
		i.Op = OpSWR
	case opcLWC1:
		i.Op = OpLWC1
	case opcSWC1:
		i.Op = OpSWC1
	}
	return i
}

func specialOp(fn uint8) Op {
	switch fn {
	case fnSLL:
		return OpSLL
	case fnSRL:
		return OpSRL
	case fnSRA:
		return OpSRA
	case fnSLLV:
		return OpSLLV
	case fnSRLV:
		return OpSRLV
	case fnSRAV:
		return OpSRAV
	case fnJR:
		return OpJR
	case fnJALR:
		return OpJALR
	case fnSYSCALL:
		return OpSYSCALL
	case fnBREAK:
		return OpBREAK
	case fnMFHI:
		return OpMFHI
	case fnMTHI:
		return OpMTHI
	case fnMFLO:
		return OpMFLO
	case fnMTLO:
		return OpMTLO
	case fnMULT:
		return OpMULT
	case fnMULTU:
		return OpMULTU
	case fnDIV:
		return OpDIV
	case fnDIVU:
		return OpDIVU
	case fnADD:
		return OpADD
	case fnADDU:
		return OpADDU
	case fnSUB:
		return OpSUB
	case fnSUBU:
		return OpSUBU
	case fnAND:
		return OpAND
	case fnOR:
		return OpOR
	case fnXOR:
		return OpXOR
	case fnNOR:
		return OpNOR
	case fnSLT:
		return OpSLT
	case fnSLTU:
		return OpSLTU
	}
	return OpInvalid
}

func cop1Op(w Word) Op {
	rs := uint8(w >> 21 & 0x1F)
	switch rs {
	case copMF:
		return OpMFC1
	case copMT:
		return OpMTC1
	case copBC:
		if w>>16&1 == 1 {
			return OpBC1T
		}
		return OpBC1F
	case fmtS, fmtD, fmtW:
		return cop1FmtOp(rs, uint8(w&0x3F))
	}
	return OpInvalid
}

func cop1FmtOp(format, fn uint8) Op {
	type key struct{ f, fn uint8 }
	switch (key{format, fn}) {
	case key{fmtS, fnFADD}:
		return OpADDS
	case key{fmtD, fnFADD}:
		return OpADDD
	case key{fmtS, fnFSUB}:
		return OpSUBS
	case key{fmtD, fnFSUB}:
		return OpSUBD
	case key{fmtS, fnFMUL}:
		return OpMULS
	case key{fmtD, fnFMUL}:
		return OpMULD
	case key{fmtS, fnFDIV}:
		return OpDIVS
	case key{fmtD, fnFDIV}:
		return OpDIVD
	case key{fmtS, fnFABS}:
		return OpABSS
	case key{fmtD, fnFABS}:
		return OpABSD
	case key{fmtS, fnFMOV}:
		return OpMOVS
	case key{fmtD, fnFMOV}:
		return OpMOVD
	case key{fmtS, fnFNEG}:
		return OpNEGS
	case key{fmtD, fnFNEG}:
		return OpNEGD
	case key{fmtD, fnCVTS}:
		return OpCVTSD
	case key{fmtW, fnCVTS}:
		return OpCVTSW
	case key{fmtS, fnCVTD}:
		return OpCVTDS
	case key{fmtW, fnCVTD}:
		return OpCVTDW
	case key{fmtS, fnCVTW}:
		return OpCVTWS
	case key{fmtD, fnCVTW}:
		return OpCVTWD
	case key{fmtS, fnCEQ}:
		return OpCEQS
	case key{fmtD, fnCEQ}:
		return OpCEQD
	case key{fmtS, fnCLT}:
		return OpCLTS
	case key{fmtD, fnCLT}:
		return OpCLTD
	case key{fmtS, fnCLE}:
		return OpCLES
	case key{fmtD, fnCLE}:
		return OpCLED
	}
	return OpInvalid
}

// encSpec describes how an Op maps back to instruction word bits.
type encSpec struct {
	kind   uint8 // 0 special, 1 regimm, 2 opcode-only, 3 cop1-rs, 4 cop1-fmt, 5 cop1-bc
	opc    uint8
	funct  uint8
	rt     uint8 // regimm rt / bc1 tf bit
	format uint8 // cop1 fmt field
}

// encTable holds each valid Op's encoding, indexed by Op like opTable. A
// missing entry would encode as SLL, so a test encodes every Op.
var encTable = [numOps]encSpec{
	OpSLL:     {0, opcSpecial, fnSLL, 0, 0},
	OpSRL:     {0, opcSpecial, fnSRL, 0, 0},
	OpSRA:     {0, opcSpecial, fnSRA, 0, 0},
	OpSLLV:    {0, opcSpecial, fnSLLV, 0, 0},
	OpSRLV:    {0, opcSpecial, fnSRLV, 0, 0},
	OpSRAV:    {0, opcSpecial, fnSRAV, 0, 0},
	OpJR:      {0, opcSpecial, fnJR, 0, 0},
	OpJALR:    {0, opcSpecial, fnJALR, 0, 0},
	OpSYSCALL: {0, opcSpecial, fnSYSCALL, 0, 0},
	OpBREAK:   {0, opcSpecial, fnBREAK, 0, 0},
	OpMFHI:    {0, opcSpecial, fnMFHI, 0, 0},
	OpMTHI:    {0, opcSpecial, fnMTHI, 0, 0},
	OpMFLO:    {0, opcSpecial, fnMFLO, 0, 0},
	OpMTLO:    {0, opcSpecial, fnMTLO, 0, 0},
	OpMULT:    {0, opcSpecial, fnMULT, 0, 0},
	OpMULTU:   {0, opcSpecial, fnMULTU, 0, 0},
	OpDIV:     {0, opcSpecial, fnDIV, 0, 0},
	OpDIVU:    {0, opcSpecial, fnDIVU, 0, 0},
	OpADD:     {0, opcSpecial, fnADD, 0, 0},
	OpADDU:    {0, opcSpecial, fnADDU, 0, 0},
	OpSUB:     {0, opcSpecial, fnSUB, 0, 0},
	OpSUBU:    {0, opcSpecial, fnSUBU, 0, 0},
	OpAND:     {0, opcSpecial, fnAND, 0, 0},
	OpOR:      {0, opcSpecial, fnOR, 0, 0},
	OpXOR:     {0, opcSpecial, fnXOR, 0, 0},
	OpNOR:     {0, opcSpecial, fnNOR, 0, 0},
	OpSLT:     {0, opcSpecial, fnSLT, 0, 0},
	OpSLTU:    {0, opcSpecial, fnSLTU, 0, 0},

	OpBLTZ:   {1, opcRegimm, 0, riBLTZ, 0},
	OpBGEZ:   {1, opcRegimm, 0, riBGEZ, 0},
	OpBLTZAL: {1, opcRegimm, 0, riBLTZAL, 0},
	OpBGEZAL: {1, opcRegimm, 0, riBGEZAL, 0},

	OpJ:   {2, opcJ, 0, 0, 0},
	OpJAL: {2, opcJAL, 0, 0, 0},

	OpBEQ:   {2, opcBEQ, 0, 0, 0},
	OpBNE:   {2, opcBNE, 0, 0, 0},
	OpBLEZ:  {2, opcBLEZ, 0, 0, 0},
	OpBGTZ:  {2, opcBGTZ, 0, 0, 0},
	OpADDI:  {2, opcADDI, 0, 0, 0},
	OpADDIU: {2, opcADDIU, 0, 0, 0},
	OpSLTI:  {2, opcSLTI, 0, 0, 0},
	OpSLTIU: {2, opcSLTIU, 0, 0, 0},
	OpANDI:  {2, opcANDI, 0, 0, 0},
	OpORI:   {2, opcORI, 0, 0, 0},
	OpXORI:  {2, opcXORI, 0, 0, 0},
	OpLUI:   {2, opcLUI, 0, 0, 0},

	OpLB:   {2, opcLB, 0, 0, 0},
	OpLH:   {2, opcLH, 0, 0, 0},
	OpLWL:  {2, opcLWL, 0, 0, 0},
	OpLW:   {2, opcLW, 0, 0, 0},
	OpLBU:  {2, opcLBU, 0, 0, 0},
	OpLHU:  {2, opcLHU, 0, 0, 0},
	OpLWR:  {2, opcLWR, 0, 0, 0},
	OpSB:   {2, opcSB, 0, 0, 0},
	OpSH:   {2, opcSH, 0, 0, 0},
	OpSWL:  {2, opcSWL, 0, 0, 0},
	OpSW:   {2, opcSW, 0, 0, 0},
	OpSWR:  {2, opcSWR, 0, 0, 0},
	OpLWC1: {2, opcLWC1, 0, 0, 0},
	OpSWC1: {2, opcSWC1, 0, 0, 0},

	OpMFC1: {3, opcCOP1, 0, 0, copMF},
	OpMTC1: {3, opcCOP1, 0, 0, copMT},
	OpBC1F: {5, opcCOP1, 0, 0, 0},
	OpBC1T: {5, opcCOP1, 0, 1, 0},

	OpADDS:  {4, opcCOP1, fnFADD, 0, fmtS},
	OpADDD:  {4, opcCOP1, fnFADD, 0, fmtD},
	OpSUBS:  {4, opcCOP1, fnFSUB, 0, fmtS},
	OpSUBD:  {4, opcCOP1, fnFSUB, 0, fmtD},
	OpMULS:  {4, opcCOP1, fnFMUL, 0, fmtS},
	OpMULD:  {4, opcCOP1, fnFMUL, 0, fmtD},
	OpDIVS:  {4, opcCOP1, fnFDIV, 0, fmtS},
	OpDIVD:  {4, opcCOP1, fnFDIV, 0, fmtD},
	OpABSS:  {4, opcCOP1, fnFABS, 0, fmtS},
	OpABSD:  {4, opcCOP1, fnFABS, 0, fmtD},
	OpMOVS:  {4, opcCOP1, fnFMOV, 0, fmtS},
	OpMOVD:  {4, opcCOP1, fnFMOV, 0, fmtD},
	OpNEGS:  {4, opcCOP1, fnFNEG, 0, fmtS},
	OpNEGD:  {4, opcCOP1, fnFNEG, 0, fmtD},
	OpCVTSD: {4, opcCOP1, fnCVTS, 0, fmtD},
	OpCVTSW: {4, opcCOP1, fnCVTS, 0, fmtW},
	OpCVTDS: {4, opcCOP1, fnCVTD, 0, fmtS},
	OpCVTDW: {4, opcCOP1, fnCVTD, 0, fmtW},
	OpCVTWS: {4, opcCOP1, fnCVTW, 0, fmtS},
	OpCVTWD: {4, opcCOP1, fnCVTW, 0, fmtD},
	OpCEQS:  {4, opcCOP1, fnCEQ, 0, fmtS},
	OpCEQD:  {4, opcCOP1, fnCEQ, 0, fmtD},
	OpCLTS:  {4, opcCOP1, fnCLT, 0, fmtS},
	OpCLTD:  {4, opcCOP1, fnCLT, 0, fmtD},
	OpCLES:  {4, opcCOP1, fnCLE, 0, fmtS},
	OpCLED:  {4, opcCOP1, fnCLE, 0, fmtD},
}

// Encode assembles the instruction fields of i into a machine word.
// The Raw field is ignored; the result is built from Op plus the register,
// immediate, and target fields. Encode panics on an invalid Op (programs
// should construct Insts from the assembler or Decode).
func Encode(i Inst) Word {
	if !i.Op.Valid() {
		panic(fmt.Sprintf("mips: Encode of invalid op %v", i.Op))
	}
	spec := &encTable[i.Op]
	switch spec.kind {
	case 0: // SPECIAL
		return Word(uint32(spec.opc)<<26 | uint32(i.Rs)<<21 | uint32(i.Rt)<<16 |
			uint32(i.Rd)<<11 | uint32(i.Shamt)<<6 | uint32(spec.funct))
	case 1: // REGIMM
		return Word(uint32(spec.opc)<<26 | uint32(i.Rs)<<21 | uint32(spec.rt)<<16 | uint32(i.Imm))
	case 2: // plain opcode: I or J format
		if i.Op == OpJ || i.Op == OpJAL {
			return Word(uint32(spec.opc)<<26 | i.Target&0x03FFFFFF)
		}
		return Word(uint32(spec.opc)<<26 | uint32(i.Rs)<<21 | uint32(i.Rt)<<16 | uint32(i.Imm))
	case 3: // MFC1/MTC1: rt = GPR, rd = FPR
		return Word(uint32(spec.opc)<<26 | uint32(spec.format)<<21 | uint32(i.Rt)<<16 | uint32(i.Rd)<<11)
	case 4: // COP1 fmt arithmetic
		return Word(uint32(spec.opc)<<26 | uint32(spec.format)<<21 | uint32(i.Rt)<<16 |
			uint32(i.Rd)<<11 | uint32(i.Shamt)<<6 | uint32(spec.funct))
	case 5: // BC1F/BC1T
		return Word(uint32(spec.opc)<<26 | uint32(copBC)<<21 | uint32(spec.rt)<<16 | uint32(i.Imm))
	}
	panic("mips: unreachable encode kind")
}
