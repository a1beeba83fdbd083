package riscv

import (
	"fmt"
	"strings"

	"ccrp/internal/isa"
)

// This file is the RV32 half of the two-pass assembler (isa.AsmBackend):
// instruction sizing, encoding, and the standard pseudo-instructions. The
// syntax is conventional RISC-V assembler syntax — bare ABI register
// names, "off(base)" memory operands, absolute branch targets.

// fitsInt12 reports whether v, viewed as signed, fits in 12 bits.
func fitsInt12(v uint32) bool {
	s := int32(v)
	return s >= -2048 && s <= 2047
}

// form is an instruction's operand syntax; each has one encoder in
// encode below, and each machine form one rendering in Disassemble.
type form uint8

const (
	formR3     form = iota // op rd, rs1, rs2
	formImm                // op rd, rs1, imm
	formShift              // op rd, rs1, shamt
	formLoad               // op rd, off(base)
	formStore              // op rs2, off(base)
	formBranch             // op rs1, rs2, target
	formUpper              // op rd, imm20
	formJAL                // jal target | jal rd, target
	formJALR               // jalr rs1 | jalr rd, off(rs1)
	formNone               // op

	// Pseudo-instructions.
	formRet     // ret
	formLi      // li rd, constant
	formLa      // la rd, address
	formRdRs    // op rd, rs: one instruction on rd and rs
	formJ       // op target: jal zero or ra
	formJr      // jr rs
	formBranchZ // op rs, target: a branch against zero
)

// mnemonic is one table entry: the operand form and the operation it
// encodes (for a pseudo-instruction, the operation it expands to, where
// one names it).
type mnemonic struct {
	form form
	op   Op
}

// mnemonics holds every mnemonic the assembler accepts, so a statement
// costs one lookup: each operation's name and form from opTable, and
// the pseudo-instructions listed here.
var mnemonics = func() map[string]mnemonic {
	m := map[string]mnemonic{
		"nop": {formNone, OpADDI},
		"ret": {formRet, OpJALR}, "li": {form: formLi}, "la": {form: formLa},
		"mv": {formRdRs, OpADDI}, "neg": {formRdRs, OpSUB}, "not": {formRdRs, OpXORI},
		"seqz": {formRdRs, OpSLTIU}, "snez": {formRdRs, OpSLTU},
		"j": {formJ, OpJAL}, "call": {formJ, OpJAL}, "jr": {formJr, OpJALR},
		"beqz": {formBranchZ, OpBEQ}, "bnez": {formBranchZ, OpBNE}, "bltz": {formBranchZ, OpBLT},
		"bgez": {formBranchZ, OpBGE}, "blez": {formBranchZ, OpBGE}, "bgtz": {formBranchZ, OpBLT},
	}
	for op := OpInvalid + 1; op < numOps; op++ {
		m[opTable[op].name] = mnemonic{opTable[op].form, op}
	}
	return m
}()

// InstSize returns the byte size of an instruction or pseudo-instruction
// during pass 1. As on MIPS, li requires a constant operand so its size
// is known before labels resolve.
func (Backend) InstSize(op string, args []string, eval isa.Evaluator) (int, error) {
	switch mnemonics[op].form {
	case formLi:
		if len(args) != 2 {
			return 0, fmt.Errorf("li needs register, constant")
		}
		v, err := eval(args[1])
		if err != nil {
			return 0, fmt.Errorf("li: %v (use la for symbols)", err)
		}
		if fitsInt12(v) {
			return 4, nil
		}
		return 8, nil
	case formLa:
		return 8, nil
	}
	return 4, nil
}

// EncodeInst translates one statement at address addr into machine words
// during pass 2 and appends them to dst. On error it returns dst as it
// was given.
func (Backend) EncodeInst(dst []isa.Word, op string, args []string, addr uint32, eval isa.Evaluator) ([]isa.Word, error) {
	e := rvEncoder{dst: dst, op: op, args: args, addr: addr, eval: eval}
	out, err := e.encode()
	if err != nil {
		return dst, err
	}
	return out, nil
}

type rvEncoder struct {
	dst  []isa.Word
	op   string
	args []string
	addr uint32
	eval isa.Evaluator
}

// emit appends the statement's instructions to the destination.
func (e *rvEncoder) emit(insts ...Inst) ([]isa.Word, error) {
	for _, i := range insts {
		e.dst = append(e.dst, isa.Word(Encode(i)))
	}
	return e.dst, nil
}

func (e *rvEncoder) errf(format string, args ...any) error {
	return fmt.Errorf("%s: %s", e.op, fmt.Sprintf(format, args...))
}

func (e *rvEncoder) nargs(n int) error {
	if len(e.args) != n {
		return e.errf("expected %d operands, got %d", n, len(e.args))
	}
	return nil
}

func (e *rvEncoder) reg(i int) (uint8, error) { return parseRVReg(e.args[i]) }

func (e *rvEncoder) expr(i int) (uint32, error) {
	v, err := e.eval(e.args[i])
	if err != nil {
		return 0, e.errf("%v", err)
	}
	return v, nil
}

// mem parses args[i] as "offset(base)".
func (e *rvEncoder) mem(i int) (int32, uint8, error) {
	s := strings.TrimSpace(e.args[i])
	open := strings.LastIndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, e.errf("expected offset(base), got %q", s)
	}
	base, err := parseRVReg(s[open+1 : len(s)-1])
	if err != nil {
		return 0, 0, e.errf("%v", err)
	}
	offStr := strings.TrimSpace(s[:open])
	var off uint32
	if offStr != "" {
		off, err = e.eval(offStr)
		if err != nil {
			return 0, 0, e.errf("%v", err)
		}
	}
	if !fitsInt12(off) {
		return 0, 0, e.errf("offset %d out of 12-bit range", int32(off))
	}
	return int32(off), base, nil
}

// branchImm computes the PC-relative immediate to target for an
// instruction at e.addr, checking range and 2-byte alignment.
func (e *rvEncoder) branchImm(target uint32, lo, hi int32) (int32, error) {
	diff := int32(target - e.addr)
	if diff&1 != 0 {
		return 0, e.errf("target %#x not halfword aligned", target)
	}
	if diff < lo || diff > hi {
		return 0, e.errf("target %#x out of range (offset %d)", target, diff)
	}
	return diff, nil
}

func (e *rvEncoder) encode() ([]isa.Word, error) {
	m, ok := mnemonics[e.op]
	if !ok {
		return nil, fmt.Errorf("unknown instruction %q", e.op)
	}
	switch m.form {
	case formR3: // op rd, rs1, rs2
		if err := e.nargs(3); err != nil {
			return nil, err
		}
		rd, err := e.reg(0)
		if err != nil {
			return nil, err
		}
		rs1, err := e.reg(1)
		if err != nil {
			return nil, err
		}
		rs2, err := e.reg(2)
		if err != nil {
			return nil, err
		}
		return e.emit(Inst{Op: m.op, Rd: rd, Rs1: rs1, Rs2: rs2})
	case formImm: // op rd, rs1, imm
		if err := e.nargs(3); err != nil {
			return nil, err
		}
		rd, err := e.reg(0)
		if err != nil {
			return nil, err
		}
		rs1, err := e.reg(1)
		if err != nil {
			return nil, err
		}
		v, err := e.expr(2)
		if err != nil {
			return nil, err
		}
		if !fitsInt12(v) {
			return nil, e.errf("immediate %d out of 12-bit range", int32(v))
		}
		return e.emit(Inst{Op: m.op, Rd: rd, Rs1: rs1, Imm: int32(v)})
	case formShift: // op rd, rs1, shamt
		if err := e.nargs(3); err != nil {
			return nil, err
		}
		rd, err := e.reg(0)
		if err != nil {
			return nil, err
		}
		rs1, err := e.reg(1)
		if err != nil {
			return nil, err
		}
		sh, err := e.expr(2)
		if err != nil {
			return nil, err
		}
		if sh > 31 {
			return nil, e.errf("shift amount %d out of range", sh)
		}
		return e.emit(Inst{Op: m.op, Rd: rd, Rs1: rs1, Imm: int32(sh)})
	case formLoad: // op rd, off(base)
		if err := e.nargs(2); err != nil {
			return nil, err
		}
		rd, err := e.reg(0)
		if err != nil {
			return nil, err
		}
		off, base, err := e.mem(1)
		if err != nil {
			return nil, err
		}
		return e.emit(Inst{Op: m.op, Rd: rd, Rs1: base, Imm: off})
	case formStore: // op rs2, off(base)
		if err := e.nargs(2); err != nil {
			return nil, err
		}
		rs2, err := e.reg(0)
		if err != nil {
			return nil, err
		}
		off, base, err := e.mem(1)
		if err != nil {
			return nil, err
		}
		return e.emit(Inst{Op: m.op, Rs2: rs2, Rs1: base, Imm: off})
	case formBranch: // op rs1, rs2, target
		if err := e.nargs(3); err != nil {
			return nil, err
		}
		rs1, err := e.reg(0)
		if err != nil {
			return nil, err
		}
		rs2, err := e.reg(1)
		if err != nil {
			return nil, err
		}
		tgt, err := e.expr(2)
		if err != nil {
			return nil, err
		}
		imm, err := e.branchImm(tgt, -4096, 4094)
		if err != nil {
			return nil, err
		}
		return e.emit(Inst{Op: m.op, Rs1: rs1, Rs2: rs2, Imm: imm})
	case formUpper: // op rd, imm20
		if err := e.nargs(2); err != nil {
			return nil, err
		}
		rd, err := e.reg(0)
		if err != nil {
			return nil, err
		}
		v, err := e.expr(1)
		if err != nil {
			return nil, err
		}
		if v > 0xFFFFF {
			return nil, e.errf("immediate %#x out of 20-bit range", v)
		}
		return e.emit(Inst{Op: m.op, Rd: rd, Imm: int32(v << 12)})
	case formJAL: // jal target | jal rd, target
		rd := RegRA
		ti := 0
		var err error
		switch len(e.args) {
		case 1:
		case 2:
			if rd, err = e.reg(0); err != nil {
				return nil, err
			}
			ti = 1
		default:
			return nil, e.errf("expected 1 or 2 operands")
		}
		tgt, err := e.expr(ti)
		if err != nil {
			return nil, err
		}
		imm, err := e.branchImm(tgt, -1<<20, 1<<20-2)
		if err != nil {
			return nil, err
		}
		return e.emit(Inst{Op: OpJAL, Rd: rd, Imm: imm})
	case formJALR: // jalr rs1 | jalr rd, off(rs1)
		switch len(e.args) {
		case 1:
			rs1, err := e.reg(0)
			if err != nil {
				return nil, err
			}
			return e.emit(Inst{Op: OpJALR, Rd: RegRA, Rs1: rs1})
		case 2:
			rd, err := e.reg(0)
			if err != nil {
				return nil, err
			}
			off, base, err := e.mem(1)
			if err != nil {
				return nil, err
			}
			return e.emit(Inst{Op: OpJALR, Rd: rd, Rs1: base, Imm: off})
		}
		return nil, e.errf("expected 1 or 2 operands")
	case formNone: // nop is addi zero, zero, 0
		if err := e.nargs(0); err != nil {
			return nil, err
		}
		return e.emit(Inst{Op: m.op})
	}
	return e.encodePseudo(m)
}

// encodePseudo handles the standard multi-word and aliasing pseudos.
func (e *rvEncoder) encodePseudo(m mnemonic) ([]isa.Word, error) {
	switch m.form {
	case formRet: // jalr zero, 0(ra)
		if err := e.nargs(0); err != nil {
			return nil, err
		}
		return e.emit(Inst{Op: m.op, Rs1: RegRA})
	case formLi:
		if err := e.nargs(2); err != nil {
			return nil, err
		}
		rd, err := e.reg(0)
		if err != nil {
			return nil, err
		}
		v, err := e.expr(1)
		if err != nil {
			return nil, err
		}
		if fitsInt12(v) {
			return e.emit(Inst{Op: OpADDI, Rd: rd, Imm: int32(v)})
		}
		hi, lo := splitImm(v)
		return e.emit(
			Inst{Op: OpLUI, Rd: rd, Imm: int32(hi << 12)},
			Inst{Op: OpADDI, Rd: rd, Rs1: rd, Imm: lo},
		)
	case formLa:
		if err := e.nargs(2); err != nil {
			return nil, err
		}
		rd, err := e.reg(0)
		if err != nil {
			return nil, err
		}
		v, err := e.expr(1)
		if err != nil {
			return nil, err
		}
		// Always two words so the size is label-independent.
		hi, lo := splitImm(v)
		return e.emit(
			Inst{Op: OpLUI, Rd: rd, Imm: int32(hi << 12)},
			Inst{Op: OpADDI, Rd: rd, Rs1: rd, Imm: lo},
		)
	case formRdRs:
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
		inst := Inst{Op: m.op, Rd: rd}
		switch m.op {
		case OpADDI: // mv: addi rd, rs, 0
			inst.Rs1 = rs
		case OpSUB, OpSLTU: // neg: sub rd, zero, rs; snez: sltu rd, zero, rs
			inst.Rs2 = rs
		case OpXORI: // not: xori rd, rs, -1
			inst.Rs1, inst.Imm = rs, -1
		case OpSLTIU: // seqz: sltiu rd, rs, 1
			inst.Rs1, inst.Imm = rs, 1
		}
		return e.emit(inst)
	case formJ: // j, call
		if err := e.nargs(1); err != nil {
			return nil, err
		}
		tgt, err := e.expr(0)
		if err != nil {
			return nil, err
		}
		imm, err := e.branchImm(tgt, -1<<20, 1<<20-2)
		if err != nil {
			return nil, err
		}
		rd := RegZero
		if e.op == "call" {
			rd = RegRA
		}
		return e.emit(Inst{Op: m.op, Rd: rd, Imm: imm})
	case formJr:
		if err := e.nargs(1); err != nil {
			return nil, err
		}
		rs, err := e.reg(0)
		if err != nil {
			return nil, err
		}
		return e.emit(Inst{Op: m.op, Rs1: rs})
	case formBranchZ:
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
		imm, err := e.branchImm(tgt, -4096, 4094)
		if err != nil {
			return nil, err
		}
		inst := Inst{Op: m.op, Rs1: rs, Imm: imm}
		// blez: rs <= 0  <=>  0 >= rs  <=>  bge x0, rs
		// bgtz: rs > 0  <=>  0 < rs  <=>  blt x0, rs
		if e.op == "blez" || e.op == "bgtz" {
			inst.Rs1, inst.Rs2 = RegZero, rs
		}
		return e.emit(inst)
	}
	return nil, fmt.Errorf("unknown instruction %q", e.op)
}

// splitImm splits v into a hi20/lo12 pair such that
// (hi<<12) + signext(lo) == v.
func splitImm(v uint32) (hi uint32, lo int32) {
	hi = (v + 0x800) >> 12 & 0xFFFFF
	lo = int32(v<<20) >> 20
	return hi, lo
}

// parseRVReg parses a bare register operand ("a0", "x5", "fp").
func parseRVReg(s string) (uint8, error) {
	s = strings.TrimSpace(s)
	r, ok := RegNumber(s)
	if !ok {
		return 0, fmt.Errorf("unknown register %q", s)
	}
	return r, nil
}
