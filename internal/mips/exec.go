package mips

import (
	"math"

	"ccrp/internal/asm"
	"ccrp/internal/isa"
)

// Stall-model parameters, in processor cycles. The multiply/divide
// latencies are the R2000's; the FP latencies approximate the R2010 FPA.
const (
	multLatency  = 12
	divLatency   = 35
	loadUseStall = 1
	fpAddStall   = 1
	fpMulSStall  = 3
	fpMulDStall  = 4
	fpDivSStall  = 11
	fpDivDStall  = 18
	fpCvtStall   = 2
)

// NewExecutor implements isa.ExecBackend.
func (Backend) NewExecutor() isa.Executor { return &executor{lastLoad: -1} }

// executor holds the MIPS-private machine state: the HI/LO pair with its
// interlock timer, the COP1 register file and condition flag, the
// load-delay tracking for the load-use stall model, and the decoded
// text.
type executor struct {
	st *isa.State // the machine's, from Reset

	// text holds the decoded instruction of each text word, indexed by
	// address/4. An entry is decoded on the word's first fetch; OpInvalid
	// marks one not decoded yet, and a store into text resets the entry
	// it overwrote, so the next fetch decodes what memory then holds.
	text []Inst

	fpr       [32]uint32
	hi        uint32
	lo        uint32
	fpc       bool   // FP condition flag
	hiloReady uint64 // icount at which HI/LO are interlock-free
	lastLoad  int16  // register written by the previous load, -1 if none; FPR as 32+n
}

var _ isa.ExecState = (*executor)(nil)

// ReadHI, ReadLO, ReadFPR implement isa.ExecState for debuggers/tests.
func (x *executor) ReadHI() uint32         { return x.hi }
func (x *executor) ReadLO() uint32         { return x.lo }
func (x *executor) ReadFPR(r uint8) uint32 { return x.fpr[r&31] }

// Reset initialises the R2000 ABI state on a fresh machine and sizes the
// decoded-text table to its text.
func (x *executor) Reset(c isa.CPU) {
	x.st = c.State()
	x.text = make([]Inst, (x.st.TextLimit-asm.TextBase+3)/4)
	x.lastLoad = -1
	x.st.SetReg(RegSP, asm.StackTop)
	x.st.SetReg(RegGP, asm.DataBase+0x8000)
}

// decode fetches the word at pc, decodes it and fills its text entry. A
// fetch outside text, an invalid encoding, or a double-precision operand
// whose register pair would run past $f31 faults instead and fills
// nothing.
func (x *executor) decode(c isa.CPU, pc uint32) (Inst, error) {
	raw, err := c.FetchWord(pc)
	if err != nil {
		return Inst{}, err
	}
	inst := Decode(Word(raw))
	switch {
	case inst.Op == OpInvalid:
		return Inst{}, c.Faultf(isa.ErrInvalidOp, "word %#08x", uint32(raw))
	case pairPastF31(inst):
		return Inst{}, c.Faultf(isa.ErrInvalidOp, "word %#08x: %v names $f31 as a double", uint32(raw), inst.Op)
	}
	x.text[(pc-asm.TextBase)/4] = inst
	return inst, nil
}

// invalidate resets the text entry of the word holding addr, if any.
func (x *executor) invalidate(addr uint32) {
	if i := (addr - asm.TextBase) / 4; i < uint32(len(x.text)) {
		x.text[i] = Inst{}
	}
}

// Step executes a single instruction, including its branch-delay-slot PC
// sequencing (pc, npc advance as a pair per MIPS-I).
func (x *executor) Step(c isa.CPU) error {
	s := x.st
	pc := s.PC
	var inst Inst
	var err error
	if i := (pc - asm.TextBase) / 4; pc&3 == 0 && i < uint32(len(x.text)) && x.text[i].Op != OpInvalid {
		inst = x.text[i]
	} else if inst, err = x.decode(c, pc); err != nil {
		return err
	}
	if s.CountClasses {
		c.CountClass(inst.Op.Class())
	}

	// Load-use interlock: one stall cycle if this instruction sources the
	// register the previous instruction loaded.
	if x.lastLoad >= 0 && usesReg(inst, x.lastLoad) {
		s.Stalls += loadUseStall
	}
	x.lastLoad = -1

	taken := false
	var target uint32

	switch inst.Op {
	// --- integer ALU ---
	case OpADD:
		a, b := int32(s.Reg(inst.Rs)), int32(s.Reg(inst.Rt))
		r := a + b
		if (a >= 0) == (b >= 0) && (r >= 0) != (a >= 0) {
			return c.Faultf(isa.ErrOverflow, "add")
		}
		s.SetReg(inst.Rd, uint32(r))
	case OpADDU:
		s.SetReg(inst.Rd, s.Reg(inst.Rs)+s.Reg(inst.Rt))
	case OpSUB:
		a, b := int32(s.Reg(inst.Rs)), int32(s.Reg(inst.Rt))
		r := a - b
		if (a >= 0) != (b >= 0) && (r >= 0) != (a >= 0) {
			return c.Faultf(isa.ErrOverflow, "sub")
		}
		s.SetReg(inst.Rd, uint32(r))
	case OpSUBU:
		s.SetReg(inst.Rd, s.Reg(inst.Rs)-s.Reg(inst.Rt))
	case OpAND:
		s.SetReg(inst.Rd, s.Reg(inst.Rs)&s.Reg(inst.Rt))
	case OpOR:
		s.SetReg(inst.Rd, s.Reg(inst.Rs)|s.Reg(inst.Rt))
	case OpXOR:
		s.SetReg(inst.Rd, s.Reg(inst.Rs)^s.Reg(inst.Rt))
	case OpNOR:
		s.SetReg(inst.Rd, ^(s.Reg(inst.Rs) | s.Reg(inst.Rt)))
	case OpSLT:
		s.SetReg(inst.Rd, b2u(int32(s.Reg(inst.Rs)) < int32(s.Reg(inst.Rt))))
	case OpSLTU:
		s.SetReg(inst.Rd, b2u(s.Reg(inst.Rs) < s.Reg(inst.Rt)))
	case OpADDI:
		a, b := int32(s.Reg(inst.Rs)), inst.SImm()
		r := a + b
		if (a >= 0) == (b >= 0) && (r >= 0) != (a >= 0) {
			return c.Faultf(isa.ErrOverflow, "addi")
		}
		s.SetReg(inst.Rt, uint32(r))
	case OpADDIU:
		s.SetReg(inst.Rt, s.Reg(inst.Rs)+uint32(inst.SImm()))
	case OpSLTI:
		s.SetReg(inst.Rt, b2u(int32(s.Reg(inst.Rs)) < inst.SImm()))
	case OpSLTIU:
		s.SetReg(inst.Rt, b2u(s.Reg(inst.Rs) < uint32(inst.SImm())))
	case OpANDI:
		s.SetReg(inst.Rt, s.Reg(inst.Rs)&inst.ZImm())
	case OpORI:
		s.SetReg(inst.Rt, s.Reg(inst.Rs)|inst.ZImm())
	case OpXORI:
		s.SetReg(inst.Rt, s.Reg(inst.Rs)^inst.ZImm())
	case OpLUI:
		s.SetReg(inst.Rt, inst.ZImm()<<16)

	// --- shifts ---
	case OpSLL:
		s.SetReg(inst.Rd, s.Reg(inst.Rt)<<inst.Shamt)
	case OpSRL:
		s.SetReg(inst.Rd, s.Reg(inst.Rt)>>inst.Shamt)
	case OpSRA:
		s.SetReg(inst.Rd, uint32(int32(s.Reg(inst.Rt))>>inst.Shamt))
	case OpSLLV:
		s.SetReg(inst.Rd, s.Reg(inst.Rt)<<(s.Reg(inst.Rs)&31))
	case OpSRLV:
		s.SetReg(inst.Rd, s.Reg(inst.Rt)>>(s.Reg(inst.Rs)&31))
	case OpSRAV:
		s.SetReg(inst.Rd, uint32(int32(s.Reg(inst.Rt))>>(s.Reg(inst.Rs)&31)))

	// --- multiply / divide ---
	case OpMULT:
		p := int64(int32(s.Reg(inst.Rs))) * int64(int32(s.Reg(inst.Rt)))
		x.lo, x.hi = uint32(p), uint32(uint64(p)>>32)
		x.hiloReady = s.Icount + multLatency
	case OpMULTU:
		p := uint64(s.Reg(inst.Rs)) * uint64(s.Reg(inst.Rt))
		x.lo, x.hi = uint32(p), uint32(p>>32)
		x.hiloReady = s.Icount + multLatency
	case OpDIV:
		d := int32(s.Reg(inst.Rt))
		if d == 0 {
			x.lo, x.hi = 0, 0
		} else {
			n := int32(s.Reg(inst.Rs))
			x.lo, x.hi = uint32(n/d), uint32(n%d)
		}
		x.hiloReady = s.Icount + divLatency
	case OpDIVU:
		d := s.Reg(inst.Rt)
		if d == 0 {
			x.lo, x.hi = 0, 0
		} else {
			n := s.Reg(inst.Rs)
			x.lo, x.hi = n/d, n%d
		}
		x.hiloReady = s.Icount + divLatency
	case OpMFHI:
		x.interlockHILO()
		s.SetReg(inst.Rd, x.hi)
	case OpMFLO:
		x.interlockHILO()
		s.SetReg(inst.Rd, x.lo)
	case OpMTHI:
		x.hi = s.Reg(inst.Rs)
	case OpMTLO:
		x.lo = s.Reg(inst.Rs)

	// --- control transfer ---
	case OpJ:
		taken, target = true, inst.JumpTarget(pc)
	case OpJAL:
		s.SetReg(RegRA, pc+8)
		taken, target = true, inst.JumpTarget(pc)
	case OpJR:
		taken, target = true, s.Reg(inst.Rs)
	case OpJALR:
		s.SetReg(inst.Rd, pc+8)
		taken, target = true, s.Reg(inst.Rs)
	case OpBEQ:
		taken, target = s.Reg(inst.Rs) == s.Reg(inst.Rt), inst.BranchTarget(pc)
	case OpBNE:
		taken, target = s.Reg(inst.Rs) != s.Reg(inst.Rt), inst.BranchTarget(pc)
	case OpBLEZ:
		taken, target = int32(s.Reg(inst.Rs)) <= 0, inst.BranchTarget(pc)
	case OpBGTZ:
		taken, target = int32(s.Reg(inst.Rs)) > 0, inst.BranchTarget(pc)
	case OpBLTZ:
		taken, target = int32(s.Reg(inst.Rs)) < 0, inst.BranchTarget(pc)
	case OpBGEZ:
		taken, target = int32(s.Reg(inst.Rs)) >= 0, inst.BranchTarget(pc)
	case OpBLTZAL:
		s.SetReg(RegRA, pc+8)
		taken, target = int32(s.Reg(inst.Rs)) < 0, inst.BranchTarget(pc)
	case OpBGEZAL:
		s.SetReg(RegRA, pc+8)
		taken, target = int32(s.Reg(inst.Rs)) >= 0, inst.BranchTarget(pc)

	// --- loads ---
	case OpLW, OpLB, OpLBU, OpLH, OpLHU, OpLWL, OpLWR, OpLWC1:
		addr := s.Reg(inst.Rs) + uint32(inst.SImm())
		s.Loads++
		if err := x.execLoad(c, inst, addr); err != nil {
			return err
		}

	// --- stores ---
	case OpSW, OpSB, OpSH, OpSWL, OpSWR, OpSWC1:
		addr := s.Reg(inst.Rs) + uint32(inst.SImm())
		s.Stores++
		if err := x.execStore(c, inst, addr); err != nil {
			return err
		}
		x.invalidate(addr)

	// --- system ---
	case OpSYSCALL:
		res, hasRes, err := c.Syscall(s.Reg(RegV0), s.Reg(RegA0))
		if err != nil {
			return err
		}
		if hasRes {
			s.SetReg(RegV0, res)
		}
	case OpBREAK:
		return c.Faultf(isa.ErrInvalidOp, "break executed")

	// --- COP1 ---
	case OpMFC1:
		s.SetReg(inst.Rt, x.fpr[inst.Fs()])
	case OpMTC1:
		x.fpr[inst.Fs()] = s.Reg(inst.Rt)
	case OpBC1T:
		taken, target = x.fpc, inst.BranchTarget(pc)
	case OpBC1F:
		taken, target = !x.fpc, inst.BranchTarget(pc)
	default:
		if err := x.execFP(c, inst); err != nil {
			return err
		}
	}

	npc := s.NPC
	s.PC = npc
	if taken {
		s.NPC = target
	} else {
		s.NPC = npc + 4
	}
	return nil
}

func (x *executor) interlockHILO() {
	if s := x.st; x.hiloReady > s.Icount {
		s.Stalls += x.hiloReady - s.Icount
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func (x *executor) execLoad(c isa.CPU, inst Inst, addr uint32) error {
	s := x.st
	switch inst.Op {
	case OpLW:
		v, err := c.LoadWord(addr)
		if err != nil {
			return err
		}
		s.SetReg(inst.Rt, v)
		x.lastLoad = int16(inst.Rt)
	case OpLB:
		v, err := c.LoadByte(addr)
		if err != nil {
			return err
		}
		s.SetReg(inst.Rt, uint32(int32(int8(v))))
		x.lastLoad = int16(inst.Rt)
	case OpLBU:
		v, err := c.LoadByte(addr)
		if err != nil {
			return err
		}
		s.SetReg(inst.Rt, uint32(v))
		x.lastLoad = int16(inst.Rt)
	case OpLH:
		v, err := c.LoadHalf(addr)
		if err != nil {
			return err
		}
		s.SetReg(inst.Rt, uint32(int32(int16(v))))
		x.lastLoad = int16(inst.Rt)
	case OpLHU:
		v, err := c.LoadHalf(addr)
		if err != nil {
			return err
		}
		s.SetReg(inst.Rt, uint32(v))
		x.lastLoad = int16(inst.Rt)
	case OpLWL:
		// Little-endian LWL: merge bytes [addr&^3 .. addr] into the high
		// end of rt.
		w, err := c.LoadWord(addr &^ 3)
		if err != nil {
			return err
		}
		b := addr & 3
		shift := 8 * (3 - b)
		mask := uint32(0xFFFFFFFF) >> (8 * (b + 1)) // shift of 32 yields 0
		s.SetReg(inst.Rt, s.Reg(inst.Rt)&mask|w<<shift)
		x.lastLoad = int16(inst.Rt)
	case OpLWR:
		// Little-endian LWR: merge bytes [addr .. addr|3] into the low
		// end of rt.
		w, err := c.LoadWord(addr &^ 3)
		if err != nil {
			return err
		}
		b := addr & 3
		shift := 8 * b
		var mask uint32
		if b != 0 {
			mask = 0xFFFFFFFF << (8 * (4 - b))
		}
		s.SetReg(inst.Rt, s.Reg(inst.Rt)&mask|w>>shift)
		x.lastLoad = int16(inst.Rt)
	case OpLWC1:
		v, err := c.LoadWord(addr)
		if err != nil {
			return err
		}
		x.fpr[inst.Ft()] = v
		x.lastLoad = int16(inst.Ft()) + 32
	}
	return nil
}

func (x *executor) execStore(c isa.CPU, inst Inst, addr uint32) error {
	s := x.st
	switch inst.Op {
	case OpSW:
		return c.StoreWord(addr, s.Reg(inst.Rt))
	case OpSB:
		return c.StoreByte(addr, byte(s.Reg(inst.Rt)))
	case OpSH:
		return c.StoreHalf(addr, uint16(s.Reg(inst.Rt)))
	case OpSWL:
		w, err := c.LoadWord(addr &^ 3)
		if err != nil {
			return err
		}
		b := addr & 3
		shift := 8 * (3 - b)
		keep := w & (uint32(0xFFFFFFFF) << (8 * (b + 1))) // shift of 32 yields 0
		return c.StoreWord(addr&^3, keep|s.Reg(inst.Rt)>>shift)
	case OpSWR:
		w, err := c.LoadWord(addr &^ 3)
		if err != nil {
			return err
		}
		b := addr & 3
		shift := 8 * b
		var keep uint32
		if b != 0 {
			keep = w & (0xFFFFFFFF >> (8 * (4 - b)))
		}
		return c.StoreWord(addr&^3, keep|s.Reg(inst.Rt)<<shift)
	case OpSWC1:
		return c.StoreWord(addr, x.fpr[inst.Ft()])
	}
	return nil
}

// usesReg reports whether inst reads the given register (0-31 GPR,
// 32-63 FPR) — used by the load-use interlock model.
func usesReg(inst Inst, reg int16) bool {
	if reg < 32 {
		r := uint8(reg)
		if r == 0 {
			return false
		}
		switch inst.Op {
		case OpJ, OpJAL, OpLUI, OpSYSCALL, OpBREAK,
			OpMFHI, OpMFLO, OpBC1T, OpBC1F, OpMFC1:
			return false
		case OpSLL, OpSRL, OpSRA:
			return inst.Rt == r
		case OpMTC1:
			return inst.Rt == r
		}
		if inst.Rs == r {
			return true
		}
		// rt is a source for R-format ALU, shifts, mult/div, branches
		// on two registers, and stores.
		switch inst.Op {
		case OpADD, OpADDU, OpSUB, OpSUBU, OpAND,
			OpOR, OpXOR, OpNOR, OpSLT, OpSLTU,
			OpSLLV, OpSRLV, OpSRAV, OpMULT, OpMULTU,
			OpDIV, OpDIVU, OpBEQ, OpBNE,
			OpSB, OpSH, OpSW, OpSWL, OpSWR:
			return inst.Rt == r
		}
		return false
	}
	f := uint8(reg - 32)
	switch inst.Op.Class() {
	case ClassFPU:
		switch inst.Op {
		case OpMFC1:
			return inst.Fs() == f
		case OpMTC1:
			return false
		case OpADDS, OpSUBS, OpMULS, OpDIVS,
			OpADDD, OpSUBD, OpMULD, OpDIVD:
			return inst.Fs() == f || inst.Ft() == f
		case OpCEQS, OpCLTS, OpCLES,
			OpCEQD, OpCLTD, OpCLED:
			return inst.Fs() == f || inst.Ft() == f
		default: // unary: mov/neg/abs/cvt
			return inst.Fs() == f
		}
	case ClassStore:
		return inst.Op == OpSWC1 && inst.Ft() == f
	}
	return false
}

// pairPastF31 reports whether a double-precision operand of inst names
// $f31, whose pair would run past the register file.
func pairPastF31(inst Inst) bool {
	fd, fs, ft := inst.Fd() == 31, inst.Fs() == 31, inst.Ft() == 31
	switch inst.Op {
	case OpADDD, OpSUBD, OpMULD, OpDIVD:
		return fd || fs || ft
	case OpABSD, OpNEGD, OpMOVD:
		return fd || fs
	case OpCEQD, OpCLTD, OpCLED:
		return fs || ft
	case OpCVTDS, OpCVTDW:
		return fd
	case OpCVTSD, OpCVTWD:
		return fs
	}
	return false
}

// --- floating point ---

func (x *executor) fs(r uint8) float32 { return math.Float32frombits(x.fpr[r]) }
func (x *executor) setFS(r uint8, v float32) {
	x.fpr[r] = math.Float32bits(v)
}

func (x *executor) fd(r uint8) float64 {
	return math.Float64frombits(uint64(x.fpr[r+1])<<32 | uint64(x.fpr[r]))
}

func (x *executor) setFD(r uint8, v float64) {
	bits := math.Float64bits(v)
	x.fpr[r] = uint32(bits)
	x.fpr[r+1] = uint32(bits >> 32)
}

func (x *executor) execFP(c isa.CPU, inst Inst) error {
	s := x.st
	fd, fs, ft := inst.Fd(), inst.Fs(), inst.Ft()
	switch inst.Op {
	case OpADDS:
		x.setFS(fd, x.fs(fs)+x.fs(ft))
		s.Stalls += fpAddStall
	case OpSUBS:
		x.setFS(fd, x.fs(fs)-x.fs(ft))
		s.Stalls += fpAddStall
	case OpMULS:
		x.setFS(fd, x.fs(fs)*x.fs(ft))
		s.Stalls += fpMulSStall
	case OpDIVS:
		x.setFS(fd, x.fs(fs)/x.fs(ft))
		s.Stalls += fpDivSStall
	case OpADDD:
		x.setFD(fd, x.fd(fs)+x.fd(ft))
		s.Stalls += fpAddStall
	case OpSUBD:
		x.setFD(fd, x.fd(fs)-x.fd(ft))
		s.Stalls += fpAddStall
	case OpMULD:
		x.setFD(fd, x.fd(fs)*x.fd(ft))
		s.Stalls += fpMulDStall
	case OpDIVD:
		x.setFD(fd, x.fd(fs)/x.fd(ft))
		s.Stalls += fpDivDStall
	case OpABSS:
		x.setFS(fd, float32(math.Abs(float64(x.fs(fs)))))
		s.Stalls += fpAddStall
	case OpABSD:
		x.setFD(fd, math.Abs(x.fd(fs)))
		s.Stalls += fpAddStall
	case OpNEGS:
		x.setFS(fd, -x.fs(fs))
		s.Stalls += fpAddStall
	case OpNEGD:
		x.setFD(fd, -x.fd(fs))
		s.Stalls += fpAddStall
	case OpMOVS:
		x.fpr[fd] = x.fpr[fs]
	case OpMOVD:
		x.fpr[fd] = x.fpr[fs]
		x.fpr[fd+1] = x.fpr[fs+1]
	case OpCVTSD:
		x.setFS(fd, float32(x.fd(fs)))
		s.Stalls += fpCvtStall
	case OpCVTSW:
		x.setFS(fd, float32(int32(x.fpr[fs])))
		s.Stalls += fpCvtStall
	case OpCVTDS:
		x.setFD(fd, float64(x.fs(fs)))
		s.Stalls += fpCvtStall
	case OpCVTDW:
		x.setFD(fd, float64(int32(x.fpr[fs])))
		s.Stalls += fpCvtStall
	case OpCVTWS:
		x.fpr[fd] = uint32(int32(x.fs(fs)))
		s.Stalls += fpCvtStall
	case OpCVTWD:
		x.fpr[fd] = uint32(int32(x.fd(fs)))
		s.Stalls += fpCvtStall
	case OpCEQS:
		x.fpc = x.fs(fs) == x.fs(ft)
		s.Stalls += fpAddStall
	case OpCLTS:
		x.fpc = x.fs(fs) < x.fs(ft)
		s.Stalls += fpAddStall
	case OpCLES:
		x.fpc = x.fs(fs) <= x.fs(ft)
		s.Stalls += fpAddStall
	case OpCEQD:
		x.fpc = x.fd(fs) == x.fd(ft)
		s.Stalls += fpAddStall
	case OpCLTD:
		x.fpc = x.fd(fs) < x.fd(ft)
		s.Stalls += fpAddStall
	case OpCLED:
		x.fpc = x.fd(fs) <= x.fd(ft)
		s.Stalls += fpAddStall
	default:
		return c.Faultf(isa.ErrInvalidOp, "op %v", inst.Op)
	}
	return nil
}
