package riscv

import (
	"fmt"

	"ccrp/internal/isa"
)

// This file is the RV32 half of the two-pass assembler (isa.AsmBackend):
// instruction sizing, encoding, and the standard pseudo-instructions. The
// syntax is conventional RISC-V assembler syntax — bare ABI register
// names, "off(base)" memory operands, absolute branch targets.

// mnemonic is one table entry: the operand form and the instruction its
// operands are parsed into, which fixes the operation and, for an alias,
// the fields its syntax leaves out (ret's rs1, call's rd, not's
// immediate).
type mnemonic struct {
	form form
	inst Inst
}

// mnemonics holds every mnemonic the assembler accepts, so a statement
// costs one lookup: each operation's name and form from opTable, and
// the pseudo-instructions listed here.
var mnemonics = func() map[string]mnemonic {
	m := map[string]mnemonic{
		"nop": {formNone, Inst{Op: OpADDI}}, "ret": {formNone, Inst{Op: OpJALR, Rs1: RegRA}},
		"li": {form: formLi}, "la": {form: formLa},
		"mv": {formRdRs1, Inst{Op: OpADDI}}, "not": {formRdRs1, Inst{Op: OpXORI, Imm: -1}},
		"seqz": {formRdRs1, Inst{Op: OpSLTIU, Imm: 1}},
		"neg":  {formRdRs2, Inst{Op: OpSUB}}, "snez": {formRdRs2, Inst{Op: OpSLTU}},
		"j": {formJ, Inst{Op: OpJAL}}, "call": {formJ, Inst{Op: OpJAL, Rd: RegRA}},
		"jr":   {formJr, Inst{Op: OpJALR}},
		"beqz": {formBranchZ, Inst{Op: OpBEQ}}, "bnez": {formBranchZ, Inst{Op: OpBNE}},
		"bltz": {formBranchZ, Inst{Op: OpBLT}}, "bgez": {formBranchZ, Inst{Op: OpBGE}},
		"blez": {formBranchZ2, Inst{Op: OpBGE}}, // rs <= 0: bge zero, rs
		"bgtz": {formBranchZ2, Inst{Op: OpBLT}}, // rs > 0: blt zero, rs
	}
	for op := OpInvalid + 1; op < numOps; op++ {
		m[opTable[op].name] = mnemonic{opTable[op].form, Inst{Op: op}}
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

func (e *rvEncoder) expr(i int) (uint32, error) {
	v, err := e.eval(e.args[i])
	if err != nil {
		return 0, e.errf("%v", err)
	}
	return v, nil
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

// encode walks the mnemonic's operand row. Only li, la and the short
// forms of jal and jalr are encoded by hand.
func (e *rvEncoder) encode() ([]isa.Word, error) {
	m, ok := mnemonics[e.op]
	if !ok {
		return nil, fmt.Errorf("unknown instruction %q", e.op)
	}
	in, list := m.inst, operands[m.form]
	switch m.form {
	case formLi, formLa:
		return e.encodeLoadImm(m.form == formLi)
	case formJAL, formJALR: // jal target, jalr rs1: rd is ra
		if n := len(e.args); n != 1 && n != 2 {
			return nil, e.errf("expected 1 or 2 operands")
		}
		if len(e.args) == 1 {
			in.Rd, list = RegRA, operands[formJ]
			if m.form == formJALR {
				list = operands[formJr]
			}
		}
	}
	if err := e.walk(&in, list); err != nil {
		return nil, err
	}
	return e.emit(in)
}

// encodeLoadImm expands li and la into lui+addi, or li into one addi
// when its constant fits. la is always two words, so that its size does
// not depend on the address.
func (e *rvEncoder) encodeLoadImm(li bool) ([]isa.Word, error) {
	var in Inst
	if err := e.nargs(2); err != nil {
		return nil, err
	}
	if err := e.parse(&in, opdRd, 0); err != nil {
		return nil, err
	}
	v, err := e.expr(1)
	if err != nil {
		return nil, err
	}
	if li && fitsInt12(v) {
		return e.emit(Inst{Op: OpADDI, Rd: in.Rd, Imm: int32(v)})
	}
	hi, lo := splitImm(v)
	return e.emit(
		Inst{Op: OpLUI, Rd: in.Rd, Imm: int32(hi << 12)},
		Inst{Op: OpADDI, Rd: in.Rd, Rs1: in.Rd, Imm: lo},
	)
}

// splitImm splits v into a hi20/lo12 pair such that
// (hi<<12) + signext(lo) == v.
func splitImm(v uint32) (hi uint32, lo int32) {
	hi = (v + 0x800) >> 12 & 0xFFFFF
	lo = int32(v<<20) >> 20
	return hi, lo
}
