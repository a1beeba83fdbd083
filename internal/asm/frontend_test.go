package asm

import (
	"fmt"
	"strings"
	"testing"
)

// outcome renders what AssembleFor made of a source: the error with its
// line, or the image's text, data, entry and symbols.
func outcome(p *Program, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "text %x data %x entry %#x", p.Text, p.Data, p.Entry)
	for _, n := range p.SymbolsSorted() {
		fmt.Fprintf(&b, " %s=%#x", n, p.Symbols[n])
	}
	return b.String()
}

// TestFrontEndEdgeCases pins how the front end splits lines, labels,
// comments and operands. Each outcome was recorded from the assembler
// that split the source with strings.Split and kept one heap statement
// per line.
func TestFrontEndEdgeCases(t *testing.T) {
	for _, c := range frontEndCases {
		if got := outcome(AssembleFor(c.isa, "edge", c.src)); got != c.want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, got, c.want)
		}
	}
}

// frontEndCases are also seeds of FuzzAssemble.
var frontEndCases = []struct {
	name, isa, src, want string
}{
	{"crlf", "", ".text\r\nmain:\r\n\tli $t0, 5\r\n\taddu $t1, $t0, $t0 # sum\r\n\t.data\r\nv:\t.word 7, v\r\n", "text 0500082421480801 data 0700000000001000 entry 0x0 main=0x0 v=0x100000"},
	{"no final newline", "", ".text\n\tnop\n\tjr $ra", "text 000000000800e003 data  entry 0x0"},
	{"two labels on a line", "", "a: b: addiu $t0, $zero, 1\n\tj b\n", "text 0100082400000008 data  entry 0x0 a=0x0 b=0x0"},
	{"label-only lines", "", "top:\n\n\tnop\nend:", "text 00000000 data  entry 0x0 top=0x0 end=0x4"},
	{"hash in a string", "", ".data\ns:\t.asciiz \"a#b\" # comment\n\t.ascii \"#\"\n", "text  data 6123620023 entry 0x0 s=0x100000"},
	{"hash and comma in char literals", "", ".text\n\tli $t0, '#' # comment\n\tli $t1, ','\n\tli $t2, '\\''\n", "text 230008242c00092427000a24 data  entry 0x0"},
	{"comma inside parentheses", "", ".data\n\t.word (1,2), 3\n", "error: line 2: .word: missing ')' in \"(1,2)\""},
	{"empty data operand", "", ".data\n\t.word 1,,2\n", "error: line 2: .word: expected operand in \"\""},
	{"empty instruction operand", "", ".text\n\taddu $t0,,$t1\n", "error: line 2: expected register, got \"\""},
	{"upper-case mnemonics", "", ".text\n\tADDU $t0, $t1, $t2\n\tNop\n\tLi $t0, 0x10000\n", "text 21402a01000000000100083c00000835 data  entry 0x0"},
	{"forward reference in li", "", ".text\n\tli $t0, later\n\tnop\nlater:\n", "error: line 2: li: undefined symbol \"later\" (use la for symbols)"},
	{"error after blank and comment lines", "", "\n# comment\n\n   \n\t# indented\n\tbogus $t0\n", "error: line 6: bogus: unknown instruction"},
	{"duplicate label on a later line", "", "a:\n\tnop\na:\tnop\n", "error: line 3: duplicate symbol \"a\""},
	{"pass-1 error after an unknown instruction", "", "\tbogus\na:\na:\n", "error: line 3: duplicate symbol \"a\""},
	{"label on a section switch", "", "x: .data\ny: .word x\n", "text  data 00000000 entry 0x0 x=0x0 y=0x100000"},
	{"equ then li", "", ".equ N, 4*3\n\tli $t0, N\n", "text 0c000824 data  entry 0x0 N=0xc"},
	{"rv32 crlf and upper case", "rv32", "\t.text\r\n__start:\r\n\tli a0, 7\r\n\tCALL f\r\nf:\tret\r\n", "text 13057000ef00400067800000 data  entry 0x0 __start=0x0 f=0x8"},
	{"rv32 error after blank and comment lines", "rv32", "\n\n# c\n\taddi t0, t0\n", "error: line 4: addi: expected 3 operands, got 2"},
}
