package mips

import "fmt"

// Disassemble renders the instruction at address pc in conventional MIPS
// assembler syntax, the operand form the assembler reads for its
// operation. Branch and jump targets are printed as absolute hex
// addresses computed from pc.
func Disassemble(w Word, pc uint32) string {
	i := Decode(w)
	if i.Op == OpInvalid {
		return fmt.Sprintf(".word 0x%08x", uint32(w))
	}
	r, f := RegName, FPRegName
	switch opTable[i.Op].form {
	case formR3:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, r(i.Rd), r(i.Rs), r(i.Rt))
	case formShiftV:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, r(i.Rd), r(i.Rt), r(i.Rs))
	case formShiftI:
		if w == 0 {
			return "nop"
		}
		return fmt.Sprintf("%s %s, %s, %d", i.Op, r(i.Rd), r(i.Rt), i.Shamt)
	case formImm:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, r(i.Rt), r(i.Rs), i.SImm())
	case formImmU:
		return fmt.Sprintf("%s %s, %s, 0x%x", i.Op, r(i.Rt), r(i.Rs), i.ZImm())
	case formLUI:
		return fmt.Sprintf("%s %s, 0x%x", i.Op, r(i.Rt), i.ZImm())
	case formMem:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, r(i.Rt), i.SImm(), r(i.Rs))
	case formMemFP:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, f(i.Rt), i.SImm(), r(i.Rs))
	case formFP3:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, f(i.Fd()), f(i.Fs()), f(i.Ft()))
	case formFP2:
		return fmt.Sprintf("%s %s, %s", i.Op, f(i.Fd()), f(i.Fs()))
	case formFPCmp:
		return fmt.Sprintf("%s %s, %s", i.Op, f(i.Fs()), f(i.Ft()))
	case formBreak:
		return fmt.Sprintf("%s 0x%x", i.Op, uint32(w)>>6&0xFFFFF)
	case formRsRt, formDiv:
		return fmt.Sprintf("%s %s, %s", i.Op, r(i.Rs), r(i.Rt))
	case formRd:
		return fmt.Sprintf("%s %s", i.Op, r(i.Rd))
	case formRs:
		return fmt.Sprintf("%s %s", i.Op, r(i.Rs))
	case formJALR:
		if i.Rd == RegRA {
			return fmt.Sprintf("%s %s", i.Op, r(i.Rs))
		}
		return fmt.Sprintf("%s %s, %s", i.Op, r(i.Rd), r(i.Rs))
	case formJump:
		return fmt.Sprintf("%s 0x%08x", i.Op, i.JumpTarget(pc))
	case formBranch2:
		return fmt.Sprintf("%s %s, %s, 0x%08x", i.Op, r(i.Rs), r(i.Rt), i.BranchTarget(pc))
	case formBranch1:
		return fmt.Sprintf("%s %s, 0x%08x", i.Op, r(i.Rs), i.BranchTarget(pc))
	case formBranchFP:
		return fmt.Sprintf("%s 0x%08x", i.Op, i.BranchTarget(pc))
	case formCop1Move:
		return fmt.Sprintf("%s %s, %s", i.Op, r(i.Rt), f(i.Rd))
	}
	return i.Op.String() // formNone: syscall
}
