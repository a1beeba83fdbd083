package mips

import (
	"testing"
	"testing/quick"
)

func TestRegNames(t *testing.T) {
	cases := []struct {
		num  uint8
		name string
	}{
		{0, "$zero"}, {1, "$at"}, {2, "$v0"}, {4, "$a0"}, {8, "$t0"},
		{16, "$s0"}, {24, "$t8"}, {28, "$gp"}, {29, "$sp"}, {30, "$fp"}, {31, "$ra"},
	}
	for _, c := range cases {
		if got := RegName(c.num); got != c.name {
			t.Errorf("RegName(%d) = %q, want %q", c.num, got, c.name)
		}
		n, ok := RegNumber(c.name[1:])
		if !ok || n != c.num {
			t.Errorf("RegNumber(%q) = %d,%v, want %d", c.name[1:], n, ok, c.num)
		}
	}
	if n, ok := RegNumber("29"); !ok || n != 29 {
		t.Errorf("numeric RegNumber failed: %d %v", n, ok)
	}
	if n, ok := RegNumber("s8"); !ok || n != RegFP {
		t.Errorf("RegNumber(s8) = %d,%v", n, ok)
	}
	if _, ok := RegNumber("t99"); ok {
		t.Error("RegNumber accepted bogus name")
	}
	if _, ok := RegNumber("32"); ok {
		t.Error("RegNumber accepted out-of-range number")
	}
}

// TestOpByNameRoundTrip: the assembler resolves every operation's
// mnemonic to that operation, and no unknown one.
func TestOpByNameRoundTrip(t *testing.T) {
	for op := Op(1); int(op) < NumOps(); op++ {
		got, ok := mnemonics[op.String()]
		if !ok || got.op != op {
			t.Errorf("mnemonics[%q] = %v,%v, want %v", op.String(), got.op, ok, op)
		}
	}
	if _, ok := mnemonics["frobnicate"]; ok {
		t.Error("mnemonics accepted unknown mnemonic")
	}
}

// Known golden encodings cross-checked against the MIPS R2000 manual.
func TestDecodeGolden(t *testing.T) {
	cases := []struct {
		raw  Word
		want string
	}{
		{0x00000000, "nop"},                      // sll $zero,$zero,0
		{0x00200000, "nop"},                      // rs is unused: the line reassembles to 0
		{0x00000002, "srl $zero, $zero, 0"},      // only sll renders as nop
		{0x012A4020, "add $t0, $t1, $t2"},        // 000000 01001 01010 01000 00000 100000
		{0x012A4022, "sub $t0, $t1, $t2"},        // funct 0x22
		{0x8D280004, "lw $t0, 4($t1)"},           // 100011 01001 01000 imm=4
		{0xAD28FFFC, "sw $t0, -4($t1)"},          // 101011, imm = -4
		{0x3C081234, "lui $t0, 0x1234"},          // 001111 00000 01000
		{0x35295678, "ori $t1, $t1, 0x5678"},     // 001101
		{0x1109000F, "beq $t0, $t1, 0x00001040"}, // at pc=0x1000, off 15<<2
		{0x08000400, "j 0x00001000"},             // 000010 target 0x400
		{0x0C000400, "jal 0x00001000"},
		{0x03E00008, "jr $ra"},
		{0x0000000C, "syscall"},
		{0x00084080, "sll $t0, $t0, 2"},
		{0x00094042, "srl $t0, $t1, 1"},
		{0x012A001A, "div $t1, $t2"},
		{0x00004010, "mfhi $t0"},
		{0x00004012, "mflo $t0"},
		{0x2508FFFF, "addiu $t0, $t0, -1"},
	}
	for _, c := range cases {
		if got := Disassemble(c.raw, 0x1000); got != c.want {
			t.Errorf("Disassemble(%08x) = %q, want %q", uint32(c.raw), got, c.want)
		}
	}
}

func TestRegimmDecode(t *testing.T) {
	// bltz $t0, .-4 : opcode 0x01, rs=8, rt=0x00, imm=-2
	w := Word(0x01<<26 | 8<<21 | 0x00<<16 | 0xFFFE)
	i := Decode(w)
	if i.Op != OpBLTZ {
		t.Fatalf("op = %v", i.Op)
	}
	if got := i.BranchTarget(0x1000); got != 0x1000+4-8 {
		t.Fatalf("target = %#x", got)
	}
	w = Word(0x01<<26 | 8<<21 | 0x11<<16 | 0x0001)
	if i := Decode(w); i.Op != OpBGEZAL {
		t.Fatalf("op = %v, want bgezal", i.Op)
	}
}

func TestCop1Decode(t *testing.T) {
	cases := []struct {
		raw  Word
		want Op
	}{
		{Word(0x11<<26 | 0x00<<21 | 5<<16 | 6<<11), OpMFC1},
		{Word(0x11<<26 | 0x04<<21 | 5<<16 | 6<<11), OpMTC1},
		{Word(0x11<<26 | 0x08<<21 | 0<<16 | 0x0010), OpBC1F},
		{Word(0x11<<26 | 0x08<<21 | 1<<16 | 0x0010), OpBC1T},
		{Word(0x11<<26 | 0x10<<21 | 2<<16 | 4<<11 | 6<<6 | 0x00), OpADDS},
		{Word(0x11<<26 | 0x11<<21 | 2<<16 | 4<<11 | 6<<6 | 0x03), OpDIVD},
		{Word(0x11<<26 | 0x14<<21 | 0<<16 | 4<<11 | 6<<6 | 0x21), OpCVTDW},
		{Word(0x11<<26 | 0x11<<21 | 2<<16 | 4<<11 | 0<<6 | 0x3C), OpCLTD},
	}
	for _, c := range cases {
		if got := Decode(c.raw).Op; got != c.want {
			t.Errorf("Decode(%08x).Op = %v, want %v", uint32(c.raw), got, c.want)
		}
	}
}

func TestClassification(t *testing.T) {
	if !Decode(0x8D280004).IsLoad() {
		t.Error("lw not classified as load")
	}
	if !Decode(0xAD280004).IsStore() {
		t.Error("sw not classified as store")
	}
	if !Decode(0x1109000F).IsBranch() {
		t.Error("beq not classified as branch")
	}
	if !Decode(0x08000400).IsJump() {
		t.Error("j not classified as jump")
	}
	if !Decode(0x03E00008).HasDelaySlot() {
		t.Error("jr has no delay slot?")
	}
	if Decode(0x012A4020).IsMemOp() {
		t.Error("add classified as memory op")
	}
	if got := Decode(0x012A0018).Op.Class(); got != ClassMulDiv {
		t.Errorf("mult class = %v", got)
	}
}

func TestJumpTargetSegment(t *testing.T) {
	// Jump target keeps the high nibble of PC+4.
	i := Decode(Word(0x02<<26 | 0x0100))
	if got := i.JumpTarget(0x00400000); got != 0x00000400 {
		t.Fatalf("target = %#x", got)
	}
}

// Property: every valid op encodes and decodes back to itself with fields
// preserved (for the fields that op's format actually stores).
func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(rs, rt, rd, sh uint8, imm uint16, tgt uint32, opRaw uint8) bool {
		op := Op(opRaw%uint8(NumOps()-1)) + 1
		in := Inst{Op: op, Rs: rs & 31, Rt: rt & 31, Rd: rd & 31, Shamt: sh & 31,
			Imm: imm, Target: tgt & 0x03FFFFFF}
		w := Encode(in)
		out := Decode(w)
		if out.Op != op {
			return false
		}
		switch op {
		case OpJ, OpJAL:
			return out.Target == in.Target
		case OpBEQ, OpBNE:
			return out.Rs == in.Rs && out.Rt == in.Rt && out.Imm == in.Imm
		case OpADD, OpADDU, OpSUB, OpSUBU, OpAND, OpOR, OpXOR, OpNOR, OpSLT, OpSLTU:
			return out.Rs == in.Rs && out.Rt == in.Rt && out.Rd == in.Rd
		case OpSLL, OpSRL, OpSRA:
			return out.Rt == in.Rt && out.Rd == in.Rd && out.Shamt == in.Shamt
		case OpBLTZ, OpBGEZ, OpBLTZAL, OpBGEZAL:
			return out.Rs == in.Rs && out.Imm == in.Imm
		case OpLW, OpSW, OpLB, OpSB, OpLH, OpSH, OpLBU, OpLHU, OpLWL, OpLWR, OpSWL, OpSWR, OpLWC1, OpSWC1:
			return out.Rs == in.Rs && out.Rt == in.Rt && out.Imm == in.Imm
		case OpMFC1, OpMTC1:
			return out.Rt == in.Rt && out.Rd == in.Rd
		case OpADDS, OpADDD, OpSUBS, OpSUBD, OpMULS, OpMULD, OpDIVS, OpDIVD:
			return out.Rt == in.Rt && out.Rd == in.Rd && out.Shamt == in.Shamt
		case OpBC1F, OpBC1T:
			return out.Imm == in.Imm
		}
		return true // formats that ignore most fields
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestEveryOpEncodesToItself: every valid Op has an encoding, and
// decoding it gives the Op back; an Op missing from the encoding table
// would encode as another. An invalid Op panics.
func TestEveryOpEncodesToItself(t *testing.T) {
	for op := Op(1); int(op) < NumOps(); op++ {
		if !op.Valid() {
			t.Fatalf("%v: not Valid", op)
		}
		w := Encode(Inst{Op: op, Rs: 1, Rt: 2, Rd: 3, Shamt: 4, Imm: 5, Target: 6})
		if got := Decode(w).Op; got != op {
			t.Errorf("%v encodes to %#08x, which decodes to %v", op, uint32(w), got)
		}
	}
	for _, op := range []Op{OpInvalid, Op(NumOps())} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Encode of %v did not panic", op)
				}
			}()
			Encode(Inst{Op: op})
		}()
	}
}

// Property: Decode never panics and always splits fields consistently.
func TestDecodeTotality(t *testing.T) {
	f := func(raw uint32) bool {
		i := Decode(Word(raw))
		return i.Rs == uint8(raw>>21&31) &&
			i.Rt == uint8(raw>>16&31) &&
			i.Rd == uint8(raw>>11&31) &&
			i.Imm == uint16(raw&0xFFFF) &&
			i.Target == raw&0x03FFFFFF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: disassembly is total (never panics, never empty).
func TestDisassembleTotality(t *testing.T) {
	f := func(raw uint32, pc uint32) bool {
		return Disassemble(Word(raw), pc&^3) != ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDecode(b *testing.B) {
	words := []Word{0x012A4020, 0x8D280004, 0x1109000F, 0x3C081234, 0x0C000400}
	for i := 0; i < b.N; i++ {
		_ = Decode(words[i%len(words)])
	}
}

func BenchmarkDisassemble(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Disassemble(0x012A4020, 0x1000)
	}
}

// Every operation in the table must survive a full synthesize →
// disassemble → re-parse cycle at the mnemonic level.
func TestEveryOpDisassemblesToItsMnemonic(t *testing.T) {
	for op := Op(1); int(op) < NumOps(); op++ {
		in := Inst{Op: op, Rs: 3, Rt: 5, Rd: 7, Shamt: 2, Imm: 0x10, Target: 0x40}
		if op == OpSLL {
			in.Shamt = 1 // avoid the all-zero nop encoding
		}
		w := Encode(in)
		text := Disassemble(w, 0x1000)
		if text == "" || text[0] == '.' {
			t.Errorf("%v disassembles to %q", op, text)
			continue
		}
		// The mnemonic must lead the line.
		mn := text
		if i := indexByte(text, ' '); i > 0 {
			mn = text[:i]
		}
		if mn != op.String() && !(op == OpSLL && mn == "nop") {
			t.Errorf("%v renders as %q", op, mn)
		}
	}
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}
