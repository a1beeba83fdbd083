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

// decoder holds the lookups Decode selects an operation by, built from
// opTable: the operation each primary opcode selects, and under SPECIAL,
// REGIMM and COP1 the operation each selecting field does.
var decoder = func() (d struct {
	opcode, special [64]Op
	regimm          [32]Op
	cop1            [32][64]Op // by rs, then funct
	bc1             [2]Op
}) {
	for op := OpInvalid + 1; op < numOps; op++ {
		e := &opTable[op]
		switch e.lay {
		case laySpecial:
			d.special[e.sel] = op
		case layRegimm:
			d.regimm[e.sel] = op
		case layI, layJ:
			d.opcode[e.sel] = op
		case layCop1: // whatever the funct bits hold
			for fn := range d.cop1[e.sel] {
				d.cop1[e.sel][fn] = op
			}
		case layCop1Fmt:
			d.cop1[e.sel][e.funct] = op
		case layBC1:
			d.bc1[e.sel] = op
		}
	}
	return d
}()

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
	switch opc := w >> 26; opc {
	case opcSpecial:
		i.Op = decoder.special[w&0x3F]
	case opcRegimm:
		i.Op = decoder.regimm[i.Rt]
	case opcCOP1:
		if i.Rs == rsBC1 {
			i.Op = decoder.bc1[w>>16&1]
		} else {
			i.Op = decoder.cop1[i.Rs][w&0x3F]
		}
	default:
		i.Op = decoder.opcode[opc]
	}
	return i
}

// Encode assembles the instruction fields of i into a machine word: the
// fields i.Op's row fixes, and the operand fields its layout places, each
// cut to its width. The Raw field is ignored. Encode panics on an invalid
// Op (programs should construct Insts from the assembler or Decode).
func Encode(i Inst) Word {
	if !i.Op.Valid() {
		panic(fmt.Sprintf("mips: Encode of invalid op %v", i.Op))
	}
	e := &opTable[i.Op]
	sel := uint32(e.sel)
	rs, rt := uint32(i.Rs&0x1F)<<21, uint32(i.Rt&0x1F)<<16
	rd, shamt := uint32(i.Rd&0x1F)<<11, uint32(i.Shamt&0x1F)<<6
	imm := uint32(i.Imm)
	switch e.lay {
	case laySpecial:
		return Word(opcSpecial<<26 | rs | rt | rd | shamt | sel)
	case layRegimm:
		return Word(opcRegimm<<26 | rs | sel<<16 | imm)
	case layI:
		return Word(sel<<26 | rs | rt | imm)
	case layJ:
		return Word(sel<<26 | i.Target&0x03FFFFFF)
	case layCop1:
		return Word(opcCOP1<<26 | sel<<21 | rt | rd)
	case layBC1:
		return Word(opcCOP1<<26 | rsBC1<<21 | sel<<16 | imm)
	}
	return Word(opcCOP1<<26 | sel<<21 | rt | rd | shamt | uint32(e.funct)) // layCop1Fmt
}
