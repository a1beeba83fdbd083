package mips_test

import (
	"encoding/binary"
	"strings"
	"testing"

	"ccrp/internal/asm"
	"ccrp/internal/mips"
)

func mustAssemble(t *testing.T, src string) *asm.Program {
	t.Helper()
	p, err := asm.Assemble("test", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func textWords(p *asm.Program) []mips.Word {
	words := make([]mips.Word, 0, len(p.Text)/4)
	for i := 0; i+4 <= len(p.Text); i += 4 {
		words = append(words, mips.Word(binary.LittleEndian.Uint32(p.Text[i:])))
	}
	return words
}

func TestBasicInstructions(t *testing.T) {
	p := mustAssemble(t, `
		.text
		add  $t0, $t1, $t2
		addiu $sp, $sp, -32
		lw   $a0, 8($sp)
		sw   $ra, 28($sp)
		sll  $t0, $t0, 2
		jr   $ra
		nop
	`)
	words := textWords(p)
	wantAsm := []string{
		"add $t0, $t1, $t2",
		"addiu $sp, $sp, -32",
		"lw $a0, 8($sp)",
		"sw $ra, 28($sp)",
		"sll $t0, $t0, 2",
		"jr $ra",
		"nop",
	}
	if len(words) != len(wantAsm) {
		t.Fatalf("got %d words, want %d", len(words), len(wantAsm))
	}
	for i, w := range words {
		if got := mips.Disassemble(w, uint32(i*4)); got != wantAsm[i] {
			t.Errorf("word %d: %q, want %q", i, got, wantAsm[i])
		}
	}
}

func TestLabelsAndBranches(t *testing.T) {
	p := mustAssemble(t, `
		.text
loop:	addiu $t0, $t0, -1
		bne   $t0, $zero, loop
		nop
		beq   $t1, $t2, done
		nop
done:	jr $ra
		nop
	`)
	words := textWords(p)
	// bne at 0x4, target 0x0: offset = (0 - 8)/4 = -2.
	bne := mips.Decode(words[1])
	if bne.Op != mips.OpBNE || bne.SImm() != -2 {
		t.Errorf("bne encoded wrong: %+v", bne)
	}
	if got := bne.BranchTarget(4); got != 0 {
		t.Errorf("bne target = %#x", got)
	}
	beq := mips.Decode(words[3])
	if got := beq.BranchTarget(12); got != p.Symbols["done"] {
		t.Errorf("beq target = %#x, want %#x", got, p.Symbols["done"])
	}
}

func TestJumpEncoding(t *testing.T) {
	p := mustAssemble(t, `
		.text
__start:
		jal func
		nop
		j __start
		nop
func:	jr $ra
		nop
	`)
	words := textWords(p)
	jal := mips.Decode(words[0])
	if got := jal.JumpTarget(0); got != p.Symbols["func"] {
		t.Errorf("jal target = %#x, want %#x", got, p.Symbols["func"])
	}
	if p.Entry != 0 {
		t.Errorf("entry = %#x", p.Entry)
	}
}

func TestLiForms(t *testing.T) {
	p := mustAssemble(t, `
		.text
		li $t0, 5        # addiu
		li $t1, -3       # addiu
		li $t2, 0xFFFF   # ori
		li $t3, 0x12345678  # lui+ori
	`)
	words := textWords(p)
	if len(words) != 5 {
		t.Fatalf("want 5 words, got %d", len(words))
	}
	if i := mips.Decode(words[0]); i.Op != mips.OpADDIU || i.SImm() != 5 {
		t.Errorf("li 5: %v", mips.Disassemble(words[0], 0))
	}
	if i := mips.Decode(words[2]); i.Op != mips.OpORI || i.ZImm() != 0xFFFF {
		t.Errorf("li 0xFFFF: %v", mips.Disassemble(words[2], 0))
	}
	if i := mips.Decode(words[3]); i.Op != mips.OpLUI || i.ZImm() != 0x1234 {
		t.Errorf("li32 hi: %v", mips.Disassemble(words[3], 0))
	}
	if i := mips.Decode(words[4]); i.Op != mips.OpORI || i.ZImm() != 0x5678 {
		t.Errorf("li32 lo: %v", mips.Disassemble(words[4], 0))
	}
}

func TestLaAndDataSymbols(t *testing.T) {
	p := mustAssemble(t, `
		.data
var:	.word 42, 43
msg:	.asciiz "hi\n"
		.text
		la $t0, var
		lw $t1, var
		lw $t2, msg+4
	`)
	if got := p.Symbols["var"]; got != asm.DataBase {
		t.Errorf("var = %#x, want %#x", got, asm.DataBase)
	}
	if got := p.Symbols["msg"]; got != asm.DataBase+8 {
		t.Errorf("msg = %#x", got)
	}
	if len(p.Data) != 8+4 {
		t.Fatalf("data len = %d", len(p.Data))
	}
	if binary.LittleEndian.Uint32(p.Data) != 42 {
		t.Errorf("data word 0 = %d", binary.LittleEndian.Uint32(p.Data))
	}
	if string(p.Data[8:11]) != "hi\n" || p.Data[11] != 0 {
		t.Errorf("string data = %q", p.Data[8:])
	}
	words := textWords(p)
	// la var: lui $t0, hi; ori $t0, $t0, lo
	lui := mips.Decode(words[0])
	ori := mips.Decode(words[1])
	if lui.Op != mips.OpLUI || uint32(lui.Imm)<<16|uint32(ori.Imm) != asm.DataBase {
		t.Errorf("la wrong: %s / %s", mips.Disassemble(words[0], 0), mips.Disassemble(words[1], 4))
	}
	// lw var: lui $at, adjhi; lw $t1, lo($at)
	lw := mips.Decode(words[3])
	if lw.Op != mips.OpLW || lw.Rs != mips.RegAT {
		t.Errorf("symbol lw wrong: %s", mips.Disassemble(words[3], 12))
	}
	hi := uint32(mips.Decode(words[2]).Imm)
	if hi<<16+uint32(int32(int16(lw.Imm))) != asm.DataBase {
		t.Errorf("symbol lw address = %#x", hi<<16+uint32(int32(int16(lw.Imm))))
	}
}

func TestHiLoAdjustment(t *testing.T) {
	// An address whose low half has the sign bit set must use an
	// adjusted %hi in the lui+lw form.
	p := mustAssemble(t, `
		.data
		.space 0x9000
var:	.word 7
		.text
		lw $t1, var
	`)
	addr := p.Symbols["var"]
	if addr&0x8000 == 0 {
		t.Fatalf("test premise: low half sign bit should be set, addr=%#x", addr)
	}
	words := textWords(p)
	hi := uint32(mips.Decode(words[0]).Imm)
	lo := int32(int16(mips.Decode(words[1]).Imm))
	if got := hi<<16 + uint32(lo); got != addr {
		t.Errorf("reconstructed address %#x, want %#x", got, addr)
	}
}

func TestCmpBranchExpansion(t *testing.T) {
	p := mustAssemble(t, `
		.text
top:	blt $a0, $a1, top
		nop
		bgeu $t0, $t1, top
		nop
	`)
	words := textWords(p)
	slt := mips.Decode(words[0])
	if slt.Op != mips.OpSLT || slt.Rd != mips.RegAT || slt.Rs != mips.RegA0 || slt.Rt != mips.RegA1 {
		t.Errorf("blt slt wrong: %s", mips.Disassemble(words[0], 0))
	}
	bne := mips.Decode(words[1])
	if bne.Op != mips.OpBNE || bne.BranchTarget(4) != 0 {
		t.Errorf("blt bne wrong: %s", mips.Disassemble(words[1], 4))
	}
	// words[2] is the delay-slot nop; bgeu expands at words[3..4].
	sltu := mips.Decode(words[3])
	if sltu.Op != mips.OpSLTU {
		t.Errorf("bgeu sltu wrong: %s", mips.Disassemble(words[3], 12))
	}
	beq := mips.Decode(words[4])
	if beq.Op != mips.OpBEQ {
		t.Errorf("bgeu beq wrong: %s", mips.Disassemble(words[4], 16))
	}
}

func TestMulDivPseudos(t *testing.T) {
	p := mustAssemble(t, `
		.text
		mul $t0, $t1, $t2
		div $t3, $t4, $t5
		rem $t6, $t7, $t8
		div $s0, $s1      # real 2-operand div
	`)
	words := textWords(p)
	if len(words) != 7 {
		t.Fatalf("want 7 words, got %d", len(words))
	}
	seq := []mips.Op{mips.OpMULT, mips.OpMFLO, mips.OpDIV, mips.OpMFLO,
		mips.OpDIV, mips.OpMFHI, mips.OpDIV}
	for i, want := range seq {
		if got := mips.Decode(words[i]).Op; got != want {
			t.Errorf("word %d op = %v, want %v", i, got, want)
		}
	}
}

func TestFPInstructions(t *testing.T) {
	p := mustAssemble(t, `
		.text
		lwc1 $f0, 0($a0)
		l.d  $f2, 8($a0)
		add.d $f4, $f2, $f0
		mul.s $f6, $f0, $f1
		cvt.d.w $f8, $f0
		c.lt.d $f4, $f8
		bc1t out
		nop
		mfc1 $t0, $f4
		s.d  $f4, 16($a0)
out:	jr $ra
		nop
	`)
	words := textWords(p)
	ld1 := mips.Decode(words[1])
	ld2 := mips.Decode(words[2])
	if ld1.Op != mips.OpLWC1 || ld1.Ft() != 2 || ld1.SImm() != 8 {
		t.Errorf("l.d low: %s", mips.Disassemble(words[1], 4))
	}
	if ld2.Op != mips.OpLWC1 || ld2.Ft() != 3 || ld2.SImm() != 12 {
		t.Errorf("l.d high: %s", mips.Disassemble(words[2], 8))
	}
	addd := mips.Decode(words[3])
	if addd.Op != mips.OpADDD || addd.Fd() != 4 || addd.Fs() != 2 || addd.Ft() != 0 {
		t.Errorf("add.d: %s", mips.Disassemble(words[3], 12))
	}
}

func TestOddDoubleRegisterRejected(t *testing.T) {
	if _, err := asm.Assemble("t", "l.d $f1, 0($a0)"); err == nil {
		t.Error("odd double register accepted")
	}
}

func TestEquAndAlign(t *testing.T) {
	p := mustAssemble(t, `
		.equ N, 25
		.equ SIZE, N+7
		.data
		.byte 1
		.align 2
w:		.word SIZE
		.text
		li $t0, N
	`)
	if p.Symbols["w"] != asm.DataBase+4 {
		t.Errorf("aligned word at %#x", p.Symbols["w"])
	}
	if binary.LittleEndian.Uint32(p.Data[4:]) != 32 {
		t.Errorf("SIZE = %d", binary.LittleEndian.Uint32(p.Data[4:]))
	}
	li := mips.Decode(textWords(p)[0])
	if li.SImm() != 25 {
		t.Errorf("li N = %d", li.SImm())
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"undefined symbol", "j nowhere", "undefined symbol"},
		{"duplicate label", "a:\na:\n nop", "duplicate"},
		{"bad register", "add $t0, $q9, $t1", "unknown register"},
		{"register with junk", "add $t0, $5junk, $t1", "unknown register"},
		{"FP register with a sign", "add.s $f+2, $f4, $f0", "unknown FP register"},
		{"FP register with a leading zero", "add.s $f2, $f04, $f0", "unknown FP register"},
		{"FP register minus zero", "add.s $f2, $f4, $f-0", "unknown FP register"},
		{"imm range", "addiu $t0, $t0, 40000", "out of 16-bit range"},
		{"branch range", ".text\nb far\n.space 300000\nfar: nop", "out of range"},
		{"instr in data", ".data\nadd $t0, $t0, $t0", "outside .text"},
		{"text ends inside a word", ".text\nnop\n.byte 1", "inside a 4-byte word"},
		{"instruction inside a word", ".text\n.byte 1\nnop\n.byte 1, 2, 3", "line 3: instruction \"nop\" at 0x1, inside a 4-byte word"},
		{"unknown op", "frob $t0", "unknown instruction"},
		{"unknown directive", ".frobnicate 3", "unknown directive"},
		{"li with forward symbol", ".text\nli $t0, fwd\nfwd: nop", "use la"},
		{"bad operand count", "add $t0, $t1", "expected 3 operands"},
		{"bad string", `.ascii "unterminated`, "quoted string"},
		{"bad escape", `.ascii "\q"`, "unknown escape"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := asm.Assemble("t", c.src)
			if err == nil {
				t.Fatalf("no error for %q", c.src)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestCommentsAndFormatting(t *testing.T) {
	p := mustAssemble(t, `
# full line comment
		.text    # trailing comment
		li $t0, '#'   # char literal containing hash
x:	y:	nop           # two labels one line
	`)
	if p.Symbols["x"] != p.Symbols["y"] {
		t.Error("stacked labels differ")
	}
	li := mips.Decode(textWords(p)[0])
	if li.SImm() != '#' {
		t.Errorf("char literal = %d", li.SImm())
	}
}

func TestSymbolsSorted(t *testing.T) {
	p := mustAssemble(t, `
		.text
b:	nop
a:	nop
	`)
	got := p.SymbolsSorted()
	if len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Errorf("sorted = %v", got)
	}
}

func TestEntrySymbol(t *testing.T) {
	p := mustAssemble(t, `
		.text
		nop
__start: nop
	`)
	if p.Entry != 4 {
		t.Errorf("entry = %#x", p.Entry)
	}
}

func TestTextWordCount(t *testing.T) {
	p := mustAssemble(t, ".text\nnop\nnop\nnop")
	if p.TextWords() != 3 {
		t.Errorf("TextWords = %d", p.TextWords())
	}
}

// Round-trip: every word the assembler emits must disassemble to
// something the assembler accepts again (on supported forms).
func TestAssembleDisassembleAssemble(t *testing.T) {
	src := `
		.text
		addu $v0, $a0, $a1
		and $t0, $t1, $t2
		xor $s0, $s1, $s2
		sltu $t3, $t4, $t5
		srl $t6, $t7, 7
		sllv $t0, $t1, $t2
		lbu $a2, 3($gp)
		sh $a3, -2($fp)
		lui $t9, 0xBEEF
		mult $a0, $a1
		mfhi $v1
	`
	p := mustAssemble(t, src)
	var b strings.Builder
	b.WriteString(".text\n")
	for i, w := range textWords(p) {
		b.WriteString(mips.Disassemble(w, uint32(i*4)))
		b.WriteString("\n")
	}
	p2 := mustAssemble(t, b.String())
	if string(p.Text) != string(p2.Text) {
		t.Error("asm -> disasm -> asm changed the text section")
	}
}

func BenchmarkAssemble(b *testing.B) {
	code := ".text\nl0: nop\n" + strings.Repeat("addu $t0, $t1, $t2\nlw $a0, 4($sp)\nbne $t0, $zero, l0\nnop\n", 500)
	b.SetBytes(int64(len(code)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := asm.Assemble("bench", code); err != nil {
			b.Fatal(err)
		}
	}
}

func TestExpressionArithmetic(t *testing.T) {
	p := mustAssemble(t, `
	.equ A, 6
	.equ B, 7
	.data
w1:	.word A*B          # 42
w2:	.word A+B*2        # 20: * binds tighter
w3:	.word (A+B)*2      # 26
w4:	.word A*B-2        # 40
w5:	.word 0x10*4       # 64
	.text
	nop
`)
	want := []uint32{42, 20, 26, 40, 64}
	for i, w := range want {
		got := binary.LittleEndian.Uint32(p.Data[i*4:])
		if got != w {
			t.Errorf("w%d = %d, want %d", i+1, got, w)
		}
	}
}

func TestExpressionErrors(t *testing.T) {
	cases := []string{
		".data\nw: .word 1+",
		".data\nw: .word (1+2",
		".data\nw: .word %hi(",
		".data\nw: .word 'ab'",
		".data\nw: .word 5 5",
	}
	for _, src := range cases {
		if _, err := asm.Assemble("t", src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestHiLoOperators(t *testing.T) {
	p := mustAssemble(t, `
	.data
big:	.word 0
	.text
	lui $t0, %hi(0x12348765)
	ori $t0, $t0, %lo(0x12348765)
`)
	words := textWords(p)
	if got := mips.Decode(words[0]).ZImm(); got != 0x1234 {
		t.Errorf("%%hi = %#x", got)
	}
	if got := mips.Decode(words[1]).ZImm(); got != 0x8765 {
		t.Errorf("%%lo = %#x", got)
	}
}

func TestNegativeAndCharLiterals(t *testing.T) {
	p := mustAssemble(t, `
	.data
b:	.byte -1, 'A', '\n', '\\'
h:	.half -2
	.text
	nop
`)
	if p.Data[0] != 0xFF || p.Data[1] != 'A' || p.Data[2] != '\n' || p.Data[3] != '\\' {
		t.Errorf("bytes = % x", p.Data[:4])
	}
	if binary.LittleEndian.Uint16(p.Data[4:]) != 0xFFFE {
		t.Errorf("half = %#x", binary.LittleEndian.Uint16(p.Data[4:]))
	}
}

func TestFloatDoubleDirectives(t *testing.T) {
	p := mustAssemble(t, `
	.data
f:	.float 1.5
d:	.double -0.25
	.text
	nop
`)
	if got := binary.LittleEndian.Uint32(p.Data); got != 0x3FC00000 {
		t.Errorf("float bits = %#x", got)
	}
	if got := binary.LittleEndian.Uint64(p.Data[4:]); got != 0xBFD0000000000000 {
		t.Errorf("double bits = %#x", got)
	}
}

func TestSetDirectivesIgnored(t *testing.T) {
	p := mustAssemble(t, `
	.set noreorder
	.globl __start
	.ent __start
	.text
__start:
	nop
	.end __start
`)
	if p.TextWords() != 1 {
		t.Errorf("words = %d", p.TextWords())
	}
}

func TestJalrForms(t *testing.T) {
	p := mustAssemble(t, ".text\njalr $t0\njalr $t1, $t2\n")
	w := textWords(p)
	i0 := mips.Decode(w[0])
	if i0.Op != mips.OpJALR || i0.Rd != mips.RegRA || i0.Rs != mips.RegT0 {
		t.Errorf("jalr rs: %s", mips.Disassemble(w[0], 0))
	}
	i1 := mips.Decode(w[1])
	if i1.Op != mips.OpJALR || i1.Rd != 9 || i1.Rs != 10 {
		t.Errorf("jalr rd, rs: %s", mips.Disassemble(w[1], 4))
	}
}

func TestMemOperandVariants(t *testing.T) {
	p := mustAssemble(t, `
	.equ OFF, 8
	.data
arr:	.space 64
	.text
	lw $t0, ($sp)          # zero offset
	lw $t1, OFF($sp)       # equ constant offset
	lw $t2, OFF+4($sp)     # expression offset
	sw $t3, -4($fp)        # negative offset
`)
	w := textWords(p)
	if got := mips.Decode(w[0]).SImm(); got != 0 {
		t.Errorf("($sp) imm = %d", got)
	}
	if got := mips.Decode(w[1]).SImm(); got != 8 {
		t.Errorf("OFF($sp) imm = %d", got)
	}
	if got := mips.Decode(w[2]).SImm(); got != 12 {
		t.Errorf("OFF+4($sp) imm = %d", got)
	}
	if got := mips.Decode(w[3]).SImm(); got != -4 {
		t.Errorf("-4($fp) imm = %d", got)
	}
}

func TestTextPaddingDirectivesInText(t *testing.T) {
	p := mustAssemble(t, `
	.text
	nop
	.align 3
after:	nop
`)
	if p.Symbols["after"] != 8 {
		t.Errorf("after = %#x, want 8", p.Symbols["after"])
	}
	if p.TextWords() != 3 {
		t.Errorf("words = %d", p.TextWords())
	}
}

func TestPseudoOperandErrors(t *testing.T) {
	cases := []string{
		"move $t0",
		"move $t0, 5",
		"not $t0, $t1, $t2",
		"neg $t0",
		"li $t0",
		"li 5, $t0",
		"la $t0",
		"la 5, x",
		"b",
		"beqz $t0",
		"bnez $t0, $t1, x",
		"blt $t0, $t1",
		"blt $t0, 5, x",
		"mul $t0, $t1",
		"rem $t0",
		"div",
		"l.d $f2",
		"s.d $f2, 0($a0), 4",
		"jalr",
		"jalr $t0, $t1, $t2",
		"mult $t0",
		"mfhi",
		"jr",
		"lui $t0",
		"lui $t0, 0x12345",
		"j",
		"beq $t0, $t1",
		"blez $t0",
		"bc1t",
		"mfc1 $t0",
		"add.s $f0, $f1",
		"mov.s $f0",
		"c.eq.s $f0",
		"sll $t0, $t1",
		"sll $t0, $t1, 32",
		"sllv $t0, $t1",
		"andi $t0, $t1, 0x10000",
		"syscall 1 2",
	}
	for _, src := range cases {
		if _, err := asm.Assemble("t", ".text\n"+src+"\n"); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestJumpRegionError(t *testing.T) {
	// Jump targets must stay in the current 256MB region.
	if _, err := asm.Assemble("t", ".text\nj 0x10000004\n"); err == nil {
		t.Error("cross-region jump accepted")
	}
	if _, err := asm.Assemble("t", ".text\nj 0x2\n"); err == nil {
		t.Error("unaligned jump accepted")
	}
}

func TestSectionOverflowChecks(t *testing.T) {
	// A .space larger than the data segment must be rejected.
	if _, err := asm.Assemble("t", ".data\n.space 0x1000000\n.text\nnop"); err == nil {
		t.Error("oversized data accepted")
	}
	// So must one that would carry a section past 4 GB: wrapped to a
	// small address, it passed the checks and pass 2 emitted 4 GB.
	for _, src := range []string{".data\n.space 0xFFFFFFF0\n", ".text\nnop\n.space 0xFFFFFFFC\nnop\n"} {
		if _, err := asm.Assemble("t", src); err == nil || !strings.Contains(err.Error(), "too large") {
			t.Errorf("%q: error %v, want a section too large", src, err)
		}
	}
}
