package mips

import (
	"fmt"

	"ccrp/internal/isa"
)

// This file is the MIPS half of the two-pass assembler: instruction
// sizing (pass 1) and encoding (pass 2) behind isa.AsmBackend. The
// generic front end (internal/asm) owns parsing, labels, sections, and
// data directives, and hands statements here with an expression
// evaluator closed over its symbol table.

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
		"move": {formRdRs, OpADDU}, "not": {formRdRs, OpNOR},
		"neg": {formRdRt, OpSUB}, "negu": {formRdRt, OpSUBU},
		"li": {form: formLi}, "la": {form: formLa}, "b": {formBranch0, OpBEQ},
		"beqz": {formBranch1, OpBEQ}, "bnez": {formBranch1, OpBNE},
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
	case formMem, formMemFP:
		if len(args) != 2 {
			return 0, fmt.Errorf("%s needs register, address", op)
		}
		if _, _, ok := splitMem(args[1]); !ok {
			return 8, nil // symbol form: lui $at + access
		}
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

// either checks the operand count of a form with a short variant.
func (e *encoder) either(a, b int) error {
	if n := len(e.args); n != a && n != b {
		return e.errf("expected %d or %d operands", a, b)
	}
	return nil
}

func (e *encoder) expr(i int) (uint32, error) {
	v, err := e.eval(e.args[i])
	if err != nil {
		return 0, e.errf("%v", err)
	}
	return v, nil
}

// branchOff computes the 16-bit word offset for a branch at e.addr (the
// address of the branch word itself, which is the second word of a
// compare-and-branch). The difference wraps modulo 2^32, as the PC adder
// does, so a target below address 0 is reachable.
func (e *encoder) branchOff(target uint32) (uint16, error) {
	diff := int32(target - (e.addr + 4))
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

// encode walks the mnemonic's operand row. Only li, la and the other
// multi-word expansions, the symbol form of loads and stores, and the
// short forms of break and jalr are encoded by hand.
func (e *encoder) encode() ([]isa.Word, error) {
	m, ok := mnemonics[e.op]
	if !ok {
		return nil, e.errf("unknown instruction")
	}
	in, list := Inst{Op: m.op}, operands[m.form]
	switch m.form {
	case formLi, formLa:
		return e.encodeLoadImm(m.form == formLi)
	case formCmpBranch:
		return e.encodeCmpBranch(m.op)
	case formMulRem:
		return e.encodeMulRem(m.op)
	case formDoubleMem:
		return e.encodeDoubleMem(m.op)
	case formMem, formMemFP:
		if len(e.args) == 2 {
			if _, _, ok := splitMem(e.args[1]); !ok {
				return e.encodeSymbolMem(in, list[0])
			}
		}
	case formBreak: // break | break code
		if err := e.either(0, 1); err != nil {
			return nil, err
		}
		list = list[:len(e.args)]
	case formJALR: // jalr rs | jalr rd, rs
		if err := e.either(1, 2); err != nil {
			return nil, err
		}
		if len(e.args) == 1 {
			in.Rd, list = RegRA, list[1:]
		}
	case formDiv: // div rs, rt | div rd, rs, rt
		if err := e.either(2, 3); err != nil {
			return nil, err
		}
		if len(e.args) == 3 {
			return e.encodeMulRem(m.op)
		}
	}
	if err := e.walk(&in, list); err != nil {
		return nil, err
	}
	return e.emit(word(in))
}
