package mips

import (
	"fmt"
	"strconv"
	"strings"
)

// form is an instruction's operand syntax. A single-word form is one row
// of the operands table: EncodeInst parses a statement by walking the
// row, and Disassemble prints a word by walking the same row. The forms
// after formRdRt have no row; they are the multi-word
// pseudo-instructions that pseudo.go expands.
type form uint8

const (
	formR3 form = iota
	formShiftV
	formShiftI
	formImm
	formImmU
	formLUI
	formMem
	formMemFP
	formFP3
	formFP2
	formFPCmp
	formCop1Move
	formNone
	formBreak
	formRsRt
	formDiv
	formRd
	formRs
	formJALR
	formJump
	formBranch2
	formBranch1
	formBranch0
	formRdRs // move, not: op rd, rs, $zero
	formRdRt // neg, negu: op rd, $zero, rt

	formLi        // li rt, constant
	formLa        // la rt, address
	formCmpBranch // op rs, rt, target through $at
	formMulRem    // op rd, rs, rt through HI/LO
	formDoubleMem // op ft, off(base) as two word accesses
	numForms
)

// operand is one operand of a form: how it is parsed, range-checked and
// printed, and the Inst field it fills.
type operand uint8

const (
	opdRd     operand = iota // GPR in Rd
	opdRs                    // GPR in Rs
	opdRt                    // GPR in Rt
	opdFd                    // FP register in Shamt
	opdFs                    // FP register in Rd
	opdFt                    // FP register in Rt
	opdShamt                 // shift amount 0..31 in Shamt, decimal
	opdSImm                  // signed 16-bit immediate in Imm, decimal
	opdUImm                  // unsigned 16-bit immediate in Imm, hex
	opdMem                   // off(base): signed 16-bit off in Imm, base GPR in Rs
	opdBranch                // branch target, as its word offset in Imm
	opdJump                  // jump target in the delay slot's 256 MB region, in Target
	opdCode                  // break code: 20 bits across Rs, Rt, Rd and Shamt, hex
)

// operands holds each single-word form's operands in order.
var operands = [numForms][]operand{
	formR3:       {opdRd, opdRs, opdRt},
	formShiftV:   {opdRd, opdRt, opdRs},
	formShiftI:   {opdRd, opdRt, opdShamt},
	formImm:      {opdRt, opdRs, opdSImm},
	formImmU:     {opdRt, opdRs, opdUImm},
	formLUI:      {opdRt, opdUImm},
	formMem:      {opdRt, opdMem}, // or op rt, symbol: encodeSymbolMem
	formMemFP:    {opdFt, opdMem}, // or op ft, symbol: encodeSymbolMem
	formFP3:      {opdFd, opdFs, opdFt},
	formFP2:      {opdFd, opdFs},
	formFPCmp:    {opdFs, opdFt},
	formCop1Move: {opdRt, opdFs},
	formNone:     {},
	formBreak:    {opdCode}, // or break alone
	formRsRt:     {opdRs, opdRt},
	formDiv:      {opdRs, opdRt}, // or op rd, rs, rt: encodeMulRem
	formRd:       {opdRd},
	formRs:       {opdRs},
	formJALR:     {opdRd, opdRs}, // or jalr rs, with rd $ra
	formJump:     {opdJump},
	formBranch2:  {opdRs, opdRt, opdBranch},
	formBranch1:  {opdRs, opdBranch},
	formBranch0:  {opdBranch},
	formRdRs:     {opdRd, opdRs},
	formRdRt:     {opdRd, opdRt},
}

// reg returns the field a register operand fills.
func (o operand) reg(in *Inst) *uint8 {
	switch o {
	case opdRs:
		return &in.Rs
	case opdRt, opdFt:
		return &in.Rt
	case opdRd, opdFs:
		return &in.Rd
	}
	return &in.Shamt // opdFd
}

// walk checks that the statement has one operand per entry of list and
// parses each into in.
func (e *encoder) walk(in *Inst, list []operand) error {
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

// parse reads operand i of the statement as o into in. A memory operand
// must have its base: the encoder sends the symbol form elsewhere.
func (e *encoder) parse(in *Inst, o operand, i int) error {
	arg := e.args[i]
	switch o {
	case opdRd, opdRs, opdRt:
		r, err := parseReg(arg)
		*o.reg(in) = r
		return err
	case opdFd, opdFs, opdFt:
		r, err := parseFReg(arg)
		*o.reg(in) = r
		return err
	case opdMem:
		offText, baseText, _ := splitMem(arg)
		base, err := parseReg(baseText)
		if err != nil {
			return e.errf("%v", err)
		}
		var off uint32
		if offText != "" {
			if off, err = e.eval(offText); err != nil {
				return e.errf("%v", err)
			}
		}
		if !fitsInt16(off) {
			return e.errf("offset %#x out of 16-bit range", off)
		}
		in.Imm, in.Rs = uint16(off), base
		return nil
	}
	v, err := e.expr(i)
	if err != nil {
		return err
	}
	switch o {
	case opdShamt:
		if v > 31 {
			return e.errf("shift amount %d out of range", v)
		}
		in.Shamt = uint8(v)
	case opdSImm, opdUImm:
		if o == opdSImm && !fitsInt16(v) || o == opdUImm && !fitsUint16(v) {
			return e.errf("immediate %#x out of 16-bit range", v)
		}
		in.Imm = uint16(v)
	case opdBranch:
		in.Imm, err = e.branchOff(v)
	case opdJump:
		if v&3 != 0 {
			return e.errf("jump target %#x not word aligned", v)
		}
		if (e.addr+4)&0xF0000000 != v&0xF0000000 {
			return e.errf("jump target %#x outside current 256MB region", v)
		}
		in.Target = v >> 2 & 0x03FFFFFF
	case opdCode:
		if v > 0xFFFFF {
			return e.errf("break code %#x out of 20-bit range", v)
		}
		in.Rs, in.Rt, in.Rd, in.Shamt = uint8(v>>15), uint8(v>>10&31), uint8(v>>5&31), uint8(v&31)
	}
	return err
}

// appendOperand appends operand o of i, the word at pc, as the
// assembler reads it back.
func appendOperand(b []byte, o operand, i Inst, pc uint32) []byte {
	switch o {
	case opdRd, opdRs, opdRt:
		return append(b, RegName(*o.reg(&i))...)
	case opdFd, opdFs, opdFt:
		return append(b, FPRegName(*o.reg(&i))...)
	case opdShamt:
		return strconv.AppendUint(b, uint64(i.Shamt), 10)
	case opdSImm:
		return strconv.AppendInt(b, int64(i.SImm()), 10)
	case opdUImm:
		return strconv.AppendUint(append(b, "0x"...), uint64(i.ZImm()), 16)
	case opdMem:
		b = strconv.AppendInt(b, int64(i.SImm()), 10)
		return append(append(append(b, '('), RegName(i.Rs)...), ')')
	case opdBranch:
		return fmt.Appendf(b, "0x%08x", i.BranchTarget(pc))
	case opdJump:
		return fmt.Appendf(b, "0x%08x", i.JumpTarget(pc))
	}
	return strconv.AppendUint(append(b, "0x"...), uint64(i.Raw>>6&0xFFFFF), 16) // opdCode
}

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

// splitMem splits an "offset(base)" memory operand into its offset and
// base text. ok is false when the operand has no parenthesized register
// (a symbol, or a parenthesized expression): that is the symbol form,
// which takes two words.
func splitMem(s string) (off, base string, ok bool) {
	s = strings.TrimSpace(s)
	open := strings.LastIndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return "", "", false
	}
	base = s[open+1 : len(s)-1]
	if !strings.HasPrefix(strings.TrimSpace(base), "$") {
		return "", "", false
	}
	return strings.TrimSpace(s[:open]), base, true
}

// fitsInt16 reports whether v, viewed as signed, fits in 16 bits.
func fitsInt16(v uint32) bool {
	s := int32(v)
	return s >= -32768 && s <= 32767
}

// fitsUint16 reports whether v fits in 16 unsigned bits.
func fitsUint16(v uint32) bool { return v <= 0xFFFF }
