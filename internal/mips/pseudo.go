package mips

import "ccrp/internal/isa"

// Pseudo-instruction expansions for the assembler backend, matching the
// conventional SPIM set: li/la without $at, compare-and-branch through
// $at, mul/rem and three-operand div through HI/LO, double-word FP
// memory access, and the symbol form of loads and stores through $at.
// The single-word aliases (move, not, neg, negu, b, beqz, bnez) are rows
// of the operand table, and every expansion reads its operands through
// the same parser.

// encodeLoadImm expands li and la. li takes addiu, ori or lui+ori,
// whichever fits its constant; la is always lui+ori, so that its size
// does not depend on the address.
func (e *encoder) encodeLoadImm(li bool) ([]isa.Word, error) {
	var in Inst
	if err := e.nargs(2); err != nil {
		return nil, err
	}
	if err := e.parse(&in, opdRt, 0); err != nil {
		return nil, err
	}
	v, err := e.expr(1)
	if err != nil {
		return nil, err
	}
	rt := in.Rt
	switch {
	case li && fitsInt16(v):
		return e.emit(word(Inst{Op: OpADDIU, Rt: rt, Rs: RegZero, Imm: uint16(v)}))
	case li && fitsUint16(v):
		return e.emit(word(Inst{Op: OpORI, Rt: rt, Rs: RegZero, Imm: uint16(v)}))
	}
	return e.emit(
		word(Inst{Op: OpLUI, Rt: rt, Imm: uint16(v >> 16)}),
		word(Inst{Op: OpORI, Rt: rt, Rs: rt, Imm: uint16(v)}),
	)
}

// encodeSymbolMem expands the symbol form of a load or store, "op rt,
// sym(+off)", through $at: lui $at, adjusted-hi(addr); op rt,
// lo(addr)($at). The load offset is sign-extended, so the high half is
// adjusted up when the low half's sign bit is set. rt is the form's
// register operand.
func (e *encoder) encodeSymbolMem(in Inst, rt operand) ([]isa.Word, error) {
	if err := e.parse(&in, rt, 0); err != nil {
		return nil, err
	}
	addr, err := e.expr(1)
	if err != nil {
		return nil, err
	}
	in.Rs, in.Imm = RegAT, uint16(addr)
	return e.emit(word(Inst{Op: OpLUI, Rt: RegAT, Imm: uint16((addr + 0x8000) >> 16)}), word(in))
}

// encodeMulRem expands mul, rem and three-operand div/divu through
// HI/LO: op rs, rt; then mflo rd, or mfhi rd for rem.
func (e *encoder) encodeMulRem(op Op) ([]isa.Word, error) {
	var in Inst
	if err := e.walk(&in, operands[formR3]); err != nil {
		return nil, err
	}
	move := OpMFLO
	if e.op == "rem" {
		move = OpMFHI
	}
	return e.emit(
		word(Inst{Op: op, Rs: in.Rs, Rt: in.Rt}),
		word(Inst{Op: move, Rd: in.Rd}),
	)
}

// encodeCmpBranch expands the two-register compare-and-branch pseudos
// through $at: slt(u) $at, a, b ; bne/beq $at, $zero, target.
func (e *encoder) encodeCmpBranch(sltOp Op) ([]isa.Word, error) {
	e.addr += 4 // the branch is the second word of the expansion
	var in Inst
	if err := e.walk(&in, operands[formBranch2]); err != nil {
		return nil, err
	}
	a, b, brOp := in.Rs, in.Rt, OpBNE // blt, bltu: rs < rt
	switch e.op {
	case "bge", "bgeu": // !(rs < rt)
		brOp = OpBEQ
	case "bgt", "bgtu": // rt < rs
		a, b = b, a
	case "ble", "bleu": // !(rt < rs)
		a, b, brOp = b, a, OpBEQ
	}
	return e.emit(
		word(Inst{Op: sltOp, Rd: RegAT, Rs: a, Rt: b}),
		word(Inst{Op: brOp, Rs: RegAT, Rt: RegZero, Imm: in.Imm}),
	)
}

// encodeDoubleMem expands l.d/s.d into a pair of single-word FP accesses.
// Little-endian doubles: the even register holds the low word at the
// lower address.
func (e *encoder) encodeDoubleMem(op Op) ([]isa.Word, error) {
	in := Inst{Op: op}
	if err := e.nargs(2); err != nil {
		return nil, err
	}
	if err := e.parse(&in, opdFt, 0); err != nil {
		return nil, err
	}
	if in.Rt%2 != 0 {
		return nil, e.errf("double-precision register %d must be even", in.Rt)
	}
	if _, _, ok := splitMem(e.args[1]); !ok {
		return nil, e.errf("symbol form not supported; load the address first")
	}
	if err := e.parse(&in, opdMem, 1); err != nil {
		return nil, err
	}
	if off := uint32(in.SImm()); !fitsInt16(off + 4) {
		return nil, e.errf("offset %#x out of 16-bit range", off)
	}
	hi := in
	hi.Rt++
	hi.Imm += 4
	return e.emit(word(in), word(hi))
}
