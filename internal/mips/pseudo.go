package mips

import "ccrp/internal/isa"

// Pseudo-instruction expansions for the assembler backend, matching the
// conventional SPIM set: move/not/neg, li/la through $at-free forms,
// compare-and-branch through $at, mul/rem through HI/LO, and double-word
// FP memory access.

// encodeMem handles loads and stores, in both the direct "rt, off(base)"
// form and the symbol form "rt, sym(+off)", which expands through $at.
// The rt of an FP access (isFP) is an FP register.
func (e *encoder) encodeMem(op Op, isFP bool) ([]isa.Word, error) {
	if err := e.nargs(2); err != nil {
		return nil, err
	}
	var rt uint8
	var err error
	if isFP {
		rt, err = e.freg(0)
	} else {
		rt, err = e.reg(0)
	}
	if err != nil {
		return nil, err
	}
	off, base, direct, err := parseMem(e.args[1], e.eval)
	if err != nil {
		return nil, e.errf("%v", err)
	}
	if direct {
		if !fitsInt16(off) {
			return nil, e.errf("offset %#x out of 16-bit range", off)
		}
		return e.emit(word(Inst{Op: op, Rt: rt, Rs: base, Imm: uint16(off)}))
	}
	// Symbol form: lui $at, adjusted-hi(addr); op rt, lo(addr)($at).
	// The load offset is sign-extended, so the high half is adjusted up
	// when the low half's sign bit is set.
	addr, err := e.expr(1)
	if err != nil {
		return nil, err
	}
	lo := addr & 0xFFFF
	hi := (addr + 0x8000) >> 16
	return e.emit(
		word(Inst{Op: OpLUI, Rt: RegAT, Imm: uint16(hi)}),
		word(Inst{Op: op, Rt: rt, Rs: RegAT, Imm: uint16(lo)}),
	)
}

// encodeDiv handles both the real two-operand div/divu and the
// three-operand pseudo (div rd, rs, rt -> div rs, rt; mflo rd).
func (e *encoder) encodeDiv(op Op) ([]isa.Word, error) {
	switch len(e.args) {
	case 2:
		rs, err := e.reg(0)
		if err != nil {
			return nil, err
		}
		rt, err := e.reg(1)
		if err != nil {
			return nil, err
		}
		return e.emit(word(Inst{Op: op, Rs: rs, Rt: rt}))
	case 3:
		rd, err := e.reg(0)
		if err != nil {
			return nil, err
		}
		rs, err := e.reg(1)
		if err != nil {
			return nil, err
		}
		rt, err := e.reg(2)
		if err != nil {
			return nil, err
		}
		return e.emit(
			word(Inst{Op: op, Rs: rs, Rt: rt}),
			word(Inst{Op: OpMFLO, Rd: rd}),
		)
	}
	return nil, e.errf("expected 2 or 3 operands")
}

// encodePseudo handles the remaining pseudo-instructions.
func (e *encoder) encodePseudo(m mnemonic) ([]isa.Word, error) {
	switch m.form {
	case formRegZero: // move, not
		if err := e.nargs(2); err != nil {
			return nil, err
		}
		rd, err := e.reg(0)
		if err != nil {
			return nil, err
		}
		rs, err := e.reg(1)
		if err != nil {
			return nil, err
		}
		return e.emit(word(Inst{Op: m.op, Rd: rd, Rs: rs, Rt: RegZero}))
	case formNeg:
		if err := e.nargs(2); err != nil {
			return nil, err
		}
		rd, err := e.reg(0)
		if err != nil {
			return nil, err
		}
		rt, err := e.reg(1)
		if err != nil {
			return nil, err
		}
		return e.emit(word(Inst{Op: m.op, Rd: rd, Rs: RegZero, Rt: rt}))
	case formLi:
		if err := e.nargs(2); err != nil {
			return nil, err
		}
		rt, err := e.reg(0)
		if err != nil {
			return nil, err
		}
		v, err := e.expr(1)
		if err != nil {
			return nil, err
		}
		switch {
		case fitsInt16(v):
			return e.emit(word(Inst{Op: OpADDIU, Rt: rt, Rs: RegZero, Imm: uint16(v)}))
		case fitsUint16(v):
			return e.emit(word(Inst{Op: OpORI, Rt: rt, Rs: RegZero, Imm: uint16(v)}))
		default:
			return e.emit(
				word(Inst{Op: OpLUI, Rt: rt, Imm: uint16(v >> 16)}),
				word(Inst{Op: OpORI, Rt: rt, Rs: rt, Imm: uint16(v)}),
			)
		}
	case formLa:
		if err := e.nargs(2); err != nil {
			return nil, err
		}
		rt, err := e.reg(0)
		if err != nil {
			return nil, err
		}
		v, err := e.expr(1)
		if err != nil {
			return nil, err
		}
		return e.emit(
			word(Inst{Op: OpLUI, Rt: rt, Imm: uint16(v >> 16)}),
			word(Inst{Op: OpORI, Rt: rt, Rs: rt, Imm: uint16(v)}),
		)
	case formB:
		if err := e.nargs(1); err != nil {
			return nil, err
		}
		tgt, err := e.expr(0)
		if err != nil {
			return nil, err
		}
		off, err := e.branchOff(tgt, e.addr)
		if err != nil {
			return nil, err
		}
		return e.emit(word(Inst{Op: m.op, Imm: off}))
	case formBranchZ: // beqz, bnez
		if err := e.nargs(2); err != nil {
			return nil, err
		}
		rs, err := e.reg(0)
		if err != nil {
			return nil, err
		}
		tgt, err := e.expr(1)
		if err != nil {
			return nil, err
		}
		off, err := e.branchOff(tgt, e.addr)
		if err != nil {
			return nil, err
		}
		return e.emit(word(Inst{Op: m.op, Rs: rs, Imm: off}))
	case formCmpBranch:
		return e.encodeCmpBranch(m.op)
	case formMulRem: // mul through LO, rem through HI
		if err := e.nargs(3); err != nil {
			return nil, err
		}
		rd, err := e.reg(0)
		if err != nil {
			return nil, err
		}
		rs, err := e.reg(1)
		if err != nil {
			return nil, err
		}
		rt, err := e.reg(2)
		if err != nil {
			return nil, err
		}
		moveOp := OpMFLO
		if m.op == OpDIV {
			moveOp = OpMFHI
		}
		return e.emit(
			word(Inst{Op: m.op, Rs: rs, Rt: rt}),
			word(Inst{Op: moveOp, Rd: rd}),
		)
	case formDoubleMem:
		return e.encodeDoubleMem(m.op)
	}
	return nil, e.errf("unknown instruction")
}

// encodeCmpBranch expands the two-register compare-and-branch pseudos
// through $at: slt(u) $at, a, b ; bne/beq $at, $zero, target.
func (e *encoder) encodeCmpBranch(sltOp Op) ([]isa.Word, error) {
	if err := e.nargs(3); err != nil {
		return nil, err
	}
	rs, err := e.reg(0)
	if err != nil {
		return nil, err
	}
	rt, err := e.reg(1)
	if err != nil {
		return nil, err
	}
	tgt, err := e.expr(2)
	if err != nil {
		return nil, err
	}
	// The branch is the second word of the expansion.
	off, err := e.branchOff(tgt, e.addr+4)
	if err != nil {
		return nil, err
	}
	var a, b uint8
	var brOp Op
	switch e.op {
	case "blt", "bltu": // rs < rt
		a, b, brOp = rs, rt, OpBNE
	case "bge", "bgeu": // !(rs < rt)
		a, b, brOp = rs, rt, OpBEQ
	case "bgt", "bgtu": // rt < rs
		a, b, brOp = rt, rs, OpBNE
	case "ble", "bleu": // !(rt < rs)
		a, b, brOp = rt, rs, OpBEQ
	}
	return e.emit(
		word(Inst{Op: sltOp, Rd: RegAT, Rs: a, Rt: b}),
		word(Inst{Op: brOp, Rs: RegAT, Rt: RegZero, Imm: off}),
	)
}

// encodeDoubleMem expands l.d/s.d into a pair of single-word FP accesses.
// Little-endian doubles: the even register holds the low word at the
// lower address.
func (e *encoder) encodeDoubleMem(op Op) ([]isa.Word, error) {
	if err := e.nargs(2); err != nil {
		return nil, err
	}
	ft, err := e.freg(0)
	if err != nil {
		return nil, err
	}
	if !evenFPReg(ft) {
		return nil, e.errf("double-precision register %d must be even", ft)
	}
	off, base, direct, err := parseMem(e.args[1], e.eval)
	if err != nil {
		return nil, e.errf("%v", err)
	}
	if !direct {
		return nil, e.errf("symbol form not supported; load the address first")
	}
	if !fitsInt16(off) || !fitsInt16(off+4) {
		return nil, e.errf("offset %#x out of 16-bit range", off)
	}
	return e.emit(
		word(Inst{Op: op, Rt: ft, Rs: base, Imm: uint16(off)}),
		word(Inst{Op: op, Rt: ft + 1, Rs: base, Imm: uint16(off + 4)}),
	)
}
