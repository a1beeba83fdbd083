package mips

import "fmt"

// Disassemble renders the instruction at address pc in conventional MIPS
// assembler syntax: its operation's operand row, as the assembler reads
// it. Branch and jump targets are printed as absolute hex addresses
// computed from pc.
func Disassemble(w Word, pc uint32) string {
	i := Decode(w)
	switch {
	case i.Op == OpInvalid:
		return fmt.Sprintf(".word 0x%08x", uint32(w))
	case i.Op == OpSLL && i.Rd == RegZero && i.Rt == RegZero && i.Shamt == 0:
		return "nop"
	case i.Op == OpJALR && i.Rd == RegRA:
		return "jalr " + RegName(i.Rs)
	}
	var buf [40]byte
	b := append(buf[:0], i.Op.String()...)
	sep := " "
	for _, o := range operands[opTable[i.Op].form] {
		b = appendOperand(append(b, sep...), o, i, pc)
		sep = ", "
	}
	return string(b)
}
