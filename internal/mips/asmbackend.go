package mips

import (
	"fmt"
	"strings"

	"ccrp/internal/isa"
)

// This file is the MIPS half of the two-pass assembler: instruction
// sizing (pass 1) and encoding (pass 2) behind isa.AsmBackend. The
// generic front end (internal/asm) owns parsing, labels, sections, and
// data directives, and hands statements here with an expression
// evaluator closed over its symbol table.

// form is an instruction's operand syntax. Each form has one encoder, in
// encode below or, for the pseudo-instructions, in pseudo.go, and each
// machine form one rendering in Disassemble.
type form uint8

const (
	formR3       form = iota // op rd, rs, rt
	formShiftV               // op rd, rt, rs
	formShiftI               // op rd, rt, shamt
	formImm                  // op rt, rs, imm (sign-extended)
	formImmU                 // op rt, rs, imm (zero-extended)
	formMem                  // op rt, off(base) | op rt, symbol
	formMemFP                // op ft, off(base) | op ft, symbol
	formFP3                  // op fd, fs, ft
	formFP2                  // op fd, fs
	formFPCmp                // op fs, ft
	formNone                 // op
	formBreak                // break [code]
	formRsRt                 // op rs, rt
	formDiv                  // op rs, rt | op rd, rs, rt
	formRd                   // op rd
	formRs                   // op rs
	formJALR                 // jalr rs | jalr rd, rs
	formLUI                  // lui rt, imm
	formJump                 // op target
	formBranch2              // op rs, rt, target
	formBranch1              // op rs, target
	formBranchFP             // op target
	formCop1Move             // op rt, fs

	// Pseudo-instructions.
	formRegZero   // op rd, rs: op rd, rs, $zero
	formNeg       // op rd, rt: op rd, $zero, rt
	formLi        // li rt, constant
	formLa        // la rt, address
	formB         // b target
	formBranchZ   // op rs, target: op rs, $zero, target
	formCmpBranch // op rs, rt, target through $at
	formMulRem    // op rd, rs, rt through HI/LO
	formDoubleMem // op ft, off(base) as two word accesses
)

// mnemonic is one table entry: the operand form and the operation it
// encodes. For a pseudo-instruction op is the first operation of its
// expansion (the slt of a compare-and-branch), or unused.
type mnemonic struct {
	form form
	op   Op
}

// mnemonics holds every mnemonic the assembler accepts, so a statement
// costs one lookup: each operation's name and form from opTable, and
// the pseudo-instructions and aliases listed here.
var mnemonics = func() map[string]mnemonic {
	m := map[string]mnemonic{
		"nop": {formNone, OpSLL}, "l.s": {formMemFP, OpLWC1}, "s.s": {formMemFP, OpSWC1},
		"move": {formRegZero, OpADDU}, "not": {formRegZero, OpNOR},
		"neg": {formNeg, OpSUB}, "negu": {formNeg, OpSUBU},
		"li": {form: formLi}, "la": {form: formLa}, "b": {formB, OpBEQ},
		"beqz": {formBranchZ, OpBEQ}, "bnez": {formBranchZ, OpBNE},
		"blt": {formCmpBranch, OpSLT}, "bgt": {formCmpBranch, OpSLT},
		"ble": {formCmpBranch, OpSLT}, "bge": {formCmpBranch, OpSLT},
		"bltu": {formCmpBranch, OpSLTU}, "bgtu": {formCmpBranch, OpSLTU},
		"bleu": {formCmpBranch, OpSLTU}, "bgeu": {formCmpBranch, OpSLTU},
		"mul": {formMulRem, OpMULT}, "rem": {formMulRem, OpDIV},
		"l.d": {formDoubleMem, OpLWC1}, "s.d": {formDoubleMem, OpSWC1},
	}
	for op := OpInvalid + 1; op < numOps; op++ {
		m[opTable[op].name] = mnemonic{opTable[op].form, op}
	}
	return m
}()

// InstSize returns the byte size of an instruction or pseudo-instruction
// during pass 1. Sizes must be computable without label values; li
// therefore requires a constant operand (use la for addresses). eval is
// the pass-1 evaluator, which rejects symbols. An unknown mnemonic sizes
// as one word; EncodeInst reports it in pass 2.
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
		if fitsInt16(v) || fitsUint16(v) {
			return 4, nil
		}
		return 8, nil
	case formLa, formCmpBranch, formMulRem, formDoubleMem:
		return 8, nil
	case formDiv:
		if len(args) == 3 {
			return 8, nil
		}
		return 4, nil
	case formMem, formMemFP:
		if len(args) != 2 {
			return 0, fmt.Errorf("%s needs register, address", op)
		}
		_, _, ok, err := parseMem(args[1], eval)
		if err != nil {
			// Offsets with symbols resolve in pass 2; the size only
			// depends on the operand's shape.
			ok = strings.Contains(args[1], "($")
		}
		if ok {
			return 4, nil
		}
		return 8, nil // symbol form: lui $at + access
	}
	return 4, nil
}

// EncodeInst translates one statement at address addr into machine words
// during pass 2 and appends them to dst. On error it returns dst as it
// was given.
func (Backend) EncodeInst(dst []isa.Word, op string, args []string, addr uint32, eval isa.Evaluator) ([]isa.Word, error) {
	e := encoder{dst: dst, op: op, args: args, addr: addr, eval: eval}
	out, err := e.encode()
	if err != nil {
		return dst, err
	}
	return out, nil
}

type encoder struct {
	dst  []isa.Word
	op   string
	args []string
	addr uint32
	eval isa.Evaluator
}

// emit appends the statement's words to the destination.
func (e *encoder) emit(ws ...isa.Word) ([]isa.Word, error) {
	return append(e.dst, ws...), nil
}

func (e *encoder) errf(format string, args ...any) error {
	return fmt.Errorf("%s: %s", e.op, fmt.Sprintf(format, args...))
}

func (e *encoder) nargs(n int) error {
	if len(e.args) != n {
		return e.errf("expected %d operands, got %d", n, len(e.args))
	}
	return nil
}

func (e *encoder) reg(i int) (uint8, error)  { return parseReg(e.args[i]) }
func (e *encoder) freg(i int) (uint8, error) { return parseFReg(e.args[i]) }
func (e *encoder) expr(i int) (uint32, error) {
	v, err := e.eval(e.args[i])
	if err != nil {
		return 0, e.errf("%v", err)
	}
	return v, nil
}

// branchOff computes the 16-bit word offset for a branch at address base
// (the address of the branch word itself, which may be the second word
// of a pseudo expansion). The difference wraps modulo 2^32, as the PC
// adder does, so a target below address 0 is reachable.
func (e *encoder) branchOff(target uint32, base uint32) (uint16, error) {
	diff := int32(target - (base + 4))
	if diff&3 != 0 {
		return 0, e.errf("branch target %#x not word aligned", target)
	}
	off := diff >> 2
	if off < -32768 || off > 32767 {
		return 0, e.errf("branch target %#x out of range (%d words)", target, off)
	}
	return uint16(off), nil
}

func word(i Inst) isa.Word { return isa.Word(Encode(i)) }

func (e *encoder) encode() ([]isa.Word, error) {
	m, ok := mnemonics[e.op]
	if !ok {
		return nil, e.errf("unknown instruction")
	}
	switch m.form {
	case formR3: // op rd, rs, rt
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
		return e.emit(word(Inst{Op: m.op, Rd: rd, Rs: rs, Rt: rt}))
	case formShiftV: // op rd, rt, rs
		if err := e.nargs(3); err != nil {
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
		rs, err := e.reg(2)
		if err != nil {
			return nil, err
		}
		return e.emit(word(Inst{Op: m.op, Rd: rd, Rt: rt, Rs: rs}))
	case formShiftI: // op rd, rt, shamt
		if err := e.nargs(3); err != nil {
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
		sh, err := e.expr(2)
		if err != nil {
			return nil, err
		}
		if sh > 31 {
			return nil, e.errf("shift amount %d out of range", sh)
		}
		return e.emit(word(Inst{Op: m.op, Rd: rd, Rt: rt, Shamt: uint8(sh)}))
	case formImm, formImmU: // op rt, rs, imm
		if err := e.nargs(3); err != nil {
			return nil, err
		}
		rt, err := e.reg(0)
		if err != nil {
			return nil, err
		}
		rs, err := e.reg(1)
		if err != nil {
			return nil, err
		}
		v, err := e.expr(2)
		if err != nil {
			return nil, err
		}
		if m.form == formImm && !fitsInt16(v) || m.form == formImmU && !fitsUint16(v) {
			return nil, e.errf("immediate %#x out of 16-bit range", v)
		}
		return e.emit(word(Inst{Op: m.op, Rt: rt, Rs: rs, Imm: uint16(v)}))
	case formMem, formMemFP:
		return e.encodeMem(m.op, m.form == formMemFP)
	case formFP3: // op fd, fs, ft
		if err := e.nargs(3); err != nil {
			return nil, err
		}
		fd, err := e.freg(0)
		if err != nil {
			return nil, err
		}
		fs, err := e.freg(1)
		if err != nil {
			return nil, err
		}
		ft, err := e.freg(2)
		if err != nil {
			return nil, err
		}
		return e.emit(word(Inst{Op: m.op, Shamt: fd, Rd: fs, Rt: ft}))
	case formFP2: // op fd, fs
		if err := e.nargs(2); err != nil {
			return nil, err
		}
		fd, err := e.freg(0)
		if err != nil {
			return nil, err
		}
		fs, err := e.freg(1)
		if err != nil {
			return nil, err
		}
		return e.emit(word(Inst{Op: m.op, Shamt: fd, Rd: fs}))
	case formFPCmp: // op fs, ft
		if err := e.nargs(2); err != nil {
			return nil, err
		}
		fs, err := e.freg(0)
		if err != nil {
			return nil, err
		}
		ft, err := e.freg(1)
		if err != nil {
			return nil, err
		}
		return e.emit(word(Inst{Op: m.op, Rd: fs, Rt: ft}))
	case formNone: // nop is sll $zero, $zero, 0: the zero word
		if err := e.nargs(0); err != nil {
			return nil, err
		}
		return e.emit(word(Inst{Op: m.op}))
	case formBreak:
		// Optional code operand (bits 25..6), which the disassembler
		// always prints.
		switch len(e.args) {
		case 0:
			return e.emit(word(Inst{Op: OpBREAK}))
		case 1:
			code, err := e.expr(0)
			if err != nil {
				return nil, err
			}
			if code > 0xFFFFF {
				return nil, e.errf("break code %#x out of 20-bit range", code)
			}
			return e.emit(word(Inst{Op: OpBREAK}) | isa.Word(code<<6))
		}
		return nil, e.errf("expected 0 or 1 operands")
	case formRsRt: // op rs, rt
		if err := e.nargs(2); err != nil {
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
		return e.emit(word(Inst{Op: m.op, Rs: rs, Rt: rt}))
	case formDiv:
		return e.encodeDiv(m.op)
	case formRd: // op rd
		if err := e.nargs(1); err != nil {
			return nil, err
		}
		rd, err := e.reg(0)
		if err != nil {
			return nil, err
		}
		return e.emit(word(Inst{Op: m.op, Rd: rd}))
	case formRs: // op rs
		if err := e.nargs(1); err != nil {
			return nil, err
		}
		rs, err := e.reg(0)
		if err != nil {
			return nil, err
		}
		return e.emit(word(Inst{Op: m.op, Rs: rs}))
	case formJALR:
		rd := uint8(RegRA)
		var rs uint8
		var err error
		switch len(e.args) {
		case 1:
			rs, err = e.reg(0)
		case 2:
			if rd, err = e.reg(0); err == nil {
				rs, err = e.reg(1)
			}
		default:
			return nil, e.errf("expected 1 or 2 operands")
		}
		if err != nil {
			return nil, err
		}
		return e.emit(word(Inst{Op: OpJALR, Rd: rd, Rs: rs}))
	case formLUI:
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
		if !fitsUint16(v) {
			return nil, e.errf("immediate %#x out of 16-bit range", v)
		}
		return e.emit(word(Inst{Op: OpLUI, Rt: rt, Imm: uint16(v)}))
	case formJump: // op target
		if err := e.nargs(1); err != nil {
			return nil, err
		}
		v, err := e.expr(0)
		if err != nil {
			return nil, err
		}
		if v&3 != 0 {
			return nil, e.errf("jump target %#x not word aligned", v)
		}
		if (e.addr+4)&0xF0000000 != v&0xF0000000 {
			return nil, e.errf("jump target %#x outside current 256MB region", v)
		}
		return e.emit(word(Inst{Op: m.op, Target: v >> 2 & 0x03FFFFFF}))
	case formBranch2: // op rs, rt, target
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
		off, err := e.branchOff(tgt, e.addr)
		if err != nil {
			return nil, err
		}
		return e.emit(word(Inst{Op: m.op, Rs: rs, Rt: rt, Imm: off}))
	case formBranch1: // op rs, target
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
	case formBranchFP: // op target
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
	case formCop1Move: // op rt, fs
		if err := e.nargs(2); err != nil {
			return nil, err
		}
		rt, err := e.reg(0)
		if err != nil {
			return nil, err
		}
		fs, err := e.freg(1)
		if err != nil {
			return nil, err
		}
		return e.emit(word(Inst{Op: m.op, Rt: rt, Rd: fs}))
	}
	return e.encodePseudo(m)
}

// evenFPReg checks whether an FP register number is valid for doubles.
func evenFPReg(r uint8) bool { return r%2 == 0 }

// parseReg parses a general-purpose register operand ("$t0", "$29").
func parseReg(s string) (uint8, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "$") {
		return 0, fmt.Errorf("expected register, got %q", s)
	}
	r, ok := RegNumber(s[1:])
	if !ok {
		return 0, fmt.Errorf("unknown register %q", s)
	}
	return r, nil
}

// parseFReg parses a floating-point register operand ("$f12").
func parseFReg(s string) (uint8, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "$f") {
		return 0, fmt.Errorf("expected FP register, got %q", s)
	}
	r, ok := fpRegNumbers[s]
	if !ok {
		return 0, fmt.Errorf("unknown FP register %q", s)
	}
	return r, nil
}

// parseMem parses an "offset(base)" memory operand. It reports ok=false
// (with no error) when the operand has no parenthesized base register, in
// which case the caller treats it as a symbol-form pseudo access.
func parseMem(s string, eval isa.Evaluator) (off uint32, base uint8, ok bool, err error) {
	s = strings.TrimSpace(s)
	open := strings.LastIndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, false, nil
	}
	inner := s[open+1 : len(s)-1]
	if !strings.HasPrefix(strings.TrimSpace(inner), "$") {
		// "(expr)" without a register is just a parenthesized expression.
		return 0, 0, false, nil
	}
	base, err = parseReg(inner)
	if err != nil {
		return 0, 0, false, err
	}
	offStr := strings.TrimSpace(s[:open])
	if offStr == "" {
		return 0, base, true, nil
	}
	off, err = eval(offStr)
	if err != nil {
		return 0, 0, false, err
	}
	return off, base, true, nil
}

// fitsInt16 reports whether v, viewed as signed, fits in 16 bits.
func fitsInt16(v uint32) bool {
	s := int32(v)
	return s >= -32768 && s <= 32767
}

// fitsUint16 reports whether v fits in 16 unsigned bits.
func fitsUint16(v uint32) bool { return v <= 0xFFFF }
