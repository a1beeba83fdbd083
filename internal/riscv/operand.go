package riscv

import (
	"fmt"
	"strconv"
	"strings"
)

// form is an instruction's operand syntax. A single-word form is one row
// of the operands table: EncodeInst parses a statement by walking the
// row, and Disassemble prints a word by walking the same row. li and la
// have no row; they may take two words and are encoded by hand.
type form uint8

const (
	formR3 form = iota
	formImm
	formShift
	formLoad
	formStore
	formBranch
	formUpper
	formJAL
	formJALR
	formNone
	formRdRs1    // mv, not, seqz
	formRdRs2    // neg, snez
	formJ        // j, call
	formJr       // jr
	formBranchZ  // beqz, bnez, bltz, bgez: rs against zero
	formBranchZ2 // blez, bgtz: zero against rs

	formLi // li rd, constant
	formLa // la rd, address
	numForms
)

// operand is one operand of a form: how it is parsed, range-checked and
// printed, and the Inst field it fills.
type operand uint8

const (
	opdRd     operand = iota // register in Rd
	opdRs1                   // register in Rs1
	opdRs2                   // register in Rs2
	opdImm                   // signed 12-bit immediate in Imm
	opdShamt                 // shift amount 0..31 in Imm
	opdUpper                 // 20-bit upper immediate, Imm = imm20<<12, hex
	opdMem                   // off(base): signed 12-bit off in Imm, base in Rs1
	opdBranch                // branch target within ±4 KiB, as the offset in Imm
	opdJump                  // jal target within ±1 MiB, as the offset in Imm
)

// operands holds each single-word form's operands in order.
var operands = [numForms][]operand{
	formR3:       {opdRd, opdRs1, opdRs2},
	formImm:      {opdRd, opdRs1, opdImm},
	formShift:    {opdRd, opdRs1, opdShamt},
	formLoad:     {opdRd, opdMem},
	formStore:    {opdRs2, opdMem},
	formBranch:   {opdRs1, opdRs2, opdBranch},
	formUpper:    {opdRd, opdUpper},
	formJAL:      {opdRd, opdJump}, // or jal target, with rd ra
	formJALR:     {opdRd, opdMem},  // or jalr rs1, with rd ra
	formNone:     {},
	formRdRs1:    {opdRd, opdRs1},
	formRdRs2:    {opdRd, opdRs2},
	formJ:        {opdJump},
	formJr:       {opdRs1},
	formBranchZ:  {opdRs1, opdBranch},
	formBranchZ2: {opdRs2, opdBranch},
}

// reg returns the field a register operand fills.
func (o operand) reg(in *Inst) *uint8 {
	switch o {
	case opdRs1:
		return &in.Rs1
	case opdRs2:
		return &in.Rs2
	}
	return &in.Rd
}

// walk checks that the statement has one operand per entry of list and
// parses each into in.
func (e *rvEncoder) walk(in *Inst, list []operand) error {
	if err := e.nargs(len(list)); err != nil {
		return err
	}
	for i, o := range list {
		if err := e.parse(in, o, i); err != nil {
			return err
		}
	}
	return nil
}

// parse reads operand i of the statement as o into in.
func (e *rvEncoder) parse(in *Inst, o operand, i int) error {
	arg := e.args[i]
	switch o {
	case opdRd, opdRs1, opdRs2:
		r, err := parseRVReg(arg)
		*o.reg(in) = r
		return err
	case opdMem:
		s := strings.TrimSpace(arg)
		open := strings.LastIndexByte(s, '(')
		if open < 0 || !strings.HasSuffix(s, ")") {
			return e.errf("expected offset(base), got %q", s)
		}
		base, err := parseRVReg(s[open+1 : len(s)-1])
		if err != nil {
			return e.errf("%v", err)
		}
		var off uint32
		if offText := strings.TrimSpace(s[:open]); offText != "" {
			if off, err = e.eval(offText); err != nil {
				return e.errf("%v", err)
			}
		}
		if !fitsInt12(off) {
			return e.errf("offset %d out of 12-bit range", int32(off))
		}
		in.Imm, in.Rs1 = int32(off), base
		return nil
	}
	v, err := e.expr(i)
	if err != nil {
		return err
	}
	switch o {
	case opdImm:
		if !fitsInt12(v) {
			return e.errf("immediate %d out of 12-bit range", int32(v))
		}
		in.Imm = int32(v)
	case opdShamt:
		if v > 31 {
			return e.errf("shift amount %d out of range", v)
		}
		in.Imm = int32(v)
	case opdUpper:
		if v > 0xFFFFF {
			return e.errf("immediate %#x out of 20-bit range", v)
		}
		in.Imm = int32(v << 12)
	case opdBranch:
		in.Imm, err = e.branchImm(v, -4096, 4094)
	case opdJump:
		in.Imm, err = e.branchImm(v, -1<<20, 1<<20-2)
	}
	return err
}

// appendOperand appends operand o of inst, the word at pc, as the
// assembler reads it back.
func appendOperand(b []byte, o operand, inst Inst, pc uint32) []byte {
	switch o {
	case opdRd, opdRs1, opdRs2:
		return append(b, RegName(*o.reg(&inst))...)
	case opdImm, opdShamt:
		return strconv.AppendInt(b, int64(inst.Imm), 10)
	case opdUpper:
		return strconv.AppendUint(append(b, "0x"...), uint64(uint32(inst.Imm)>>12), 16)
	case opdMem:
		b = strconv.AppendInt(b, int64(inst.Imm), 10)
		return append(append(append(b, '('), RegName(inst.Rs1)...), ')')
	}
	return fmt.Appendf(b, "0x%08x", pc+uint32(inst.Imm)) // opdBranch, opdJump
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

// fitsInt12 reports whether v, viewed as signed, fits in 12 bits.
func fitsInt12(v uint32) bool {
	s := int32(v)
	return s >= -2048 && s <= 2047
}
