package asm

import (
	"bytes"
	"testing"
)

// FuzzAssemble: the assembler must never panic on arbitrary source, for
// either backend, and anything it accepts must produce a word-aligned
// text section and an image that round-trips.
func FuzzAssemble(f *testing.F) {
	f.Add(".text\nnop\n")
	f.Add(".data\nv: .word 1, 2\n.text\nlw $t0, v\n")
	f.Add("label without colon\n")
	f.Add(".equ X, 5*5\n.text\nli $t0, X\n")
	f.Add("\t.ascii \"unterminated\n")
	f.Add(".text\nb far\nnop\nfar: jr $ra\nnop\n")
	f.Add("\t.text\n__start:\n\tli t0, 10\nloop:\n\taddi t0, t0, -1\n\tbnez t0, loop\n\tla a0, v\n\tlw a1, 4(a0)\n\tcall f\n\tecall\nf:\tret\n\t.data\nv:\t.word 1, 2\n")
	f.Add("\taddi x5junk, x0, 7\n\tadd.s $f+2, $f04, $f-0\n\tadd x05, x-0, x+5\n")
	f.Add(".data\n.space 0xFFFFFFF0\n")
	f.Add(".text\n.byte 1\nnop\n.byte 1, 2, 3\n")
	// The front end's edge cases, on whichever backend runs them.
	for _, c := range frontEndCases {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		for _, isaName := range []string{"mips", "rv32"} {
			p, err := AssembleFor(isaName, "fuzz", src)
			if err != nil {
				continue
			}
			if len(p.Text)%4 != 0 {
				t.Fatalf("%s: accepted program has unaligned text: %d bytes", isaName, len(p.Text))
			}
			var buf bytes.Buffer
			if err := p.WriteImage(&buf); err != nil {
				t.Fatalf("%s: accepted program fails serialization: %v", isaName, err)
			}
			if _, err := ReadImage(&buf); err != nil {
				t.Fatalf("%s: serialized program fails reload: %v", isaName, err)
			}
		}
	})
}

// FuzzReadImage hardens the image parser.
func FuzzReadImage(f *testing.F) {
	p := &Program{Text: []byte{0, 0, 0, 0}, Data: []byte{1}, Symbols: map[string]uint32{}}
	var buf bytes.Buffer
	if err := p.WriteImage(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadImage(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := got.WriteImage(&out); err != nil {
			t.Fatalf("accepted image fails re-serialization: %v", err)
		}
	})
}
