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
// interlock timer, the COP1 register file and condition flag, and the
// load-delay tracking for the load-use stall model.
type executor struct {
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

// Reset initialises the R2000 ABI state on a fresh machine.
func (x *executor) Reset(c isa.CPU) {
	x.lastLoad = -1
	c.SetReg(RegSP, asm.StackTop)
	c.SetReg(RegGP, asm.DataBase+0x8000)
}

// Step executes a single instruction, including its branch-delay-slot PC
// sequencing (pc, npc advance as a pair per MIPS-I).
func (x *executor) Step(c isa.CPU) error {
	raw, err := c.FetchWord(c.PC())
	if err != nil {
		return err
	}
	inst := Decode(Word(raw))
	if inst.Op == OpInvalid {
		return c.Faultf(isa.ErrInvalidOp, "word %#08x", uint32(raw))
	}
	c.CountClass(inst.Op.Class())

	// Load-use interlock: one stall cycle if this instruction sources the
	// register the previous instruction loaded.
	if x.lastLoad >= 0 && usesReg(inst, x.lastLoad) {
		c.AddStalls(loadUseStall)
	}
	x.lastLoad = -1

	pc := c.PC()
	taken := false
	var target uint32

	switch inst.Op {
	// --- integer ALU ---
	case OpADD:
		a, b := int32(c.Reg(inst.Rs)), int32(c.Reg(inst.Rt))
		s := a + b
		if (a >= 0) == (b >= 0) && (s >= 0) != (a >= 0) {
			return c.Faultf(isa.ErrOverflow, "add")
		}
		c.SetReg(inst.Rd, uint32(s))
	case OpADDU:
		c.SetReg(inst.Rd, c.Reg(inst.Rs)+c.Reg(inst.Rt))
	case OpSUB:
		a, b := int32(c.Reg(inst.Rs)), int32(c.Reg(inst.Rt))
		s := a - b
		if (a >= 0) != (b >= 0) && (s >= 0) != (a >= 0) {
			return c.Faultf(isa.ErrOverflow, "sub")
		}
		c.SetReg(inst.Rd, uint32(s))
	case OpSUBU:
		c.SetReg(inst.Rd, c.Reg(inst.Rs)-c.Reg(inst.Rt))
	case OpAND:
		c.SetReg(inst.Rd, c.Reg(inst.Rs)&c.Reg(inst.Rt))
	case OpOR:
		c.SetReg(inst.Rd, c.Reg(inst.Rs)|c.Reg(inst.Rt))
	case OpXOR:
		c.SetReg(inst.Rd, c.Reg(inst.Rs)^c.Reg(inst.Rt))
	case OpNOR:
		c.SetReg(inst.Rd, ^(c.Reg(inst.Rs) | c.Reg(inst.Rt)))
	case OpSLT:
		c.SetReg(inst.Rd, b2u(int32(c.Reg(inst.Rs)) < int32(c.Reg(inst.Rt))))
	case OpSLTU:
		c.SetReg(inst.Rd, b2u(c.Reg(inst.Rs) < c.Reg(inst.Rt)))
	case OpADDI:
		a, b := int32(c.Reg(inst.Rs)), inst.SImm()
		s := a + b
		if (a >= 0) == (b >= 0) && (s >= 0) != (a >= 0) {
			return c.Faultf(isa.ErrOverflow, "addi")
		}
		c.SetReg(inst.Rt, uint32(s))
	case OpADDIU:
		c.SetReg(inst.Rt, c.Reg(inst.Rs)+uint32(inst.SImm()))
	case OpSLTI:
		c.SetReg(inst.Rt, b2u(int32(c.Reg(inst.Rs)) < inst.SImm()))
	case OpSLTIU:
		c.SetReg(inst.Rt, b2u(c.Reg(inst.Rs) < uint32(inst.SImm())))
	case OpANDI:
		c.SetReg(inst.Rt, c.Reg(inst.Rs)&inst.ZImm())
	case OpORI:
		c.SetReg(inst.Rt, c.Reg(inst.Rs)|inst.ZImm())
	case OpXORI:
		c.SetReg(inst.Rt, c.Reg(inst.Rs)^inst.ZImm())
	case OpLUI:
		c.SetReg(inst.Rt, inst.ZImm()<<16)

	// --- shifts ---
	case OpSLL:
		c.SetReg(inst.Rd, c.Reg(inst.Rt)<<inst.Shamt)
	case OpSRL:
		c.SetReg(inst.Rd, c.Reg(inst.Rt)>>inst.Shamt)
	case OpSRA:
		c.SetReg(inst.Rd, uint32(int32(c.Reg(inst.Rt))>>inst.Shamt))
	case OpSLLV:
		c.SetReg(inst.Rd, c.Reg(inst.Rt)<<(c.Reg(inst.Rs)&31))
	case OpSRLV:
		c.SetReg(inst.Rd, c.Reg(inst.Rt)>>(c.Reg(inst.Rs)&31))
	case OpSRAV:
		c.SetReg(inst.Rd, uint32(int32(c.Reg(inst.Rt))>>(c.Reg(inst.Rs)&31)))

	// --- multiply / divide ---
	case OpMULT:
		p := int64(int32(c.Reg(inst.Rs))) * int64(int32(c.Reg(inst.Rt)))
		x.lo, x.hi = uint32(p), uint32(uint64(p)>>32)
		x.hiloReady = c.Icount() + multLatency
	case OpMULTU:
		p := uint64(c.Reg(inst.Rs)) * uint64(c.Reg(inst.Rt))
		x.lo, x.hi = uint32(p), uint32(p>>32)
		x.hiloReady = c.Icount() + multLatency
	case OpDIV:
		d := int32(c.Reg(inst.Rt))
		if d == 0 {
			x.lo, x.hi = 0, 0
		} else {
			n := int32(c.Reg(inst.Rs))
			x.lo, x.hi = uint32(n/d), uint32(n%d)
		}
		x.hiloReady = c.Icount() + divLatency
	case OpDIVU:
		d := c.Reg(inst.Rt)
		if d == 0 {
			x.lo, x.hi = 0, 0
		} else {
			n := c.Reg(inst.Rs)
			x.lo, x.hi = n/d, n%d
		}
		x.hiloReady = c.Icount() + divLatency
	case OpMFHI:
		x.interlockHILO(c)
		c.SetReg(inst.Rd, x.hi)
	case OpMFLO:
		x.interlockHILO(c)
		c.SetReg(inst.Rd, x.lo)
	case OpMTHI:
		x.hi = c.Reg(inst.Rs)
	case OpMTLO:
		x.lo = c.Reg(inst.Rs)

	// --- control transfer ---
	case OpJ:
		taken, target = true, inst.JumpTarget(pc)
	case OpJAL:
		c.SetReg(RegRA, pc+8)
		taken, target = true, inst.JumpTarget(pc)
	case OpJR:
		taken, target = true, c.Reg(inst.Rs)
	case OpJALR:
		c.SetReg(inst.Rd, pc+8)
		taken, target = true, c.Reg(inst.Rs)
	case OpBEQ:
		taken, target = c.Reg(inst.Rs) == c.Reg(inst.Rt), inst.BranchTarget(pc)
	case OpBNE:
		taken, target = c.Reg(inst.Rs) != c.Reg(inst.Rt), inst.BranchTarget(pc)
	case OpBLEZ:
		taken, target = int32(c.Reg(inst.Rs)) <= 0, inst.BranchTarget(pc)
	case OpBGTZ:
		taken, target = int32(c.Reg(inst.Rs)) > 0, inst.BranchTarget(pc)
	case OpBLTZ:
		taken, target = int32(c.Reg(inst.Rs)) < 0, inst.BranchTarget(pc)
	case OpBGEZ:
		taken, target = int32(c.Reg(inst.Rs)) >= 0, inst.BranchTarget(pc)
	case OpBLTZAL:
		c.SetReg(RegRA, pc+8)
		taken, target = int32(c.Reg(inst.Rs)) < 0, inst.BranchTarget(pc)
	case OpBGEZAL:
		c.SetReg(RegRA, pc+8)
		taken, target = int32(c.Reg(inst.Rs)) >= 0, inst.BranchTarget(pc)

	// --- loads ---
	case OpLW, OpLB, OpLBU, OpLH, OpLHU, OpLWL, OpLWR, OpLWC1:
		addr := c.Reg(inst.Rs) + uint32(inst.SImm())
		c.NoteLoad()
		if err := x.execLoad(c, inst, addr); err != nil {
			return err
		}

	// --- stores ---
	case OpSW, OpSB, OpSH, OpSWL, OpSWR, OpSWC1:
		addr := c.Reg(inst.Rs) + uint32(inst.SImm())
		c.NoteStore()
		if err := x.execStore(c, inst, addr); err != nil {
			return err
		}

	// --- system ---
	case OpSYSCALL:
		res, hasRes, err := c.Syscall(c.Reg(RegV0), c.Reg(RegA0))
		if err != nil {
			return err
		}
		if hasRes {
			c.SetReg(RegV0, res)
		}
	case OpBREAK:
		return c.Faultf(isa.ErrInvalidOp, "break executed")

	// --- COP1 ---
	case OpMFC1:
		c.SetReg(inst.Rt, x.fpr[inst.Fs()])
	case OpMTC1:
		x.fpr[inst.Fs()] = c.Reg(inst.Rt)
	case OpBC1T:
		taken, target = x.fpc, inst.BranchTarget(pc)
	case OpBC1F:
		taken, target = !x.fpc, inst.BranchTarget(pc)
	default:
		if err := x.execFP(c, inst); err != nil {
			return err
		}
	}

	npc := c.NPC()
	c.SetPC(npc)
	if taken {
		c.SetNPC(target)
	} else {
		c.SetNPC(npc + 4)
	}
	return nil
}

func (x *executor) interlockHILO(c isa.CPU) {
	if x.hiloReady > c.Icount() {
		c.AddStalls(x.hiloReady - c.Icount())
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func (x *executor) execLoad(c isa.CPU, inst Inst, addr uint32) error {
	switch inst.Op {
	case OpLW:
		v, err := c.LoadWord(addr)
		if err != nil {
			return err
		}
		c.SetReg(inst.Rt, v)
		x.lastLoad = int16(inst.Rt)
	case OpLB:
		v, err := c.LoadByte(addr)
		if err != nil {
			return err
		}
		c.SetReg(inst.Rt, uint32(int32(int8(v))))
		x.lastLoad = int16(inst.Rt)
	case OpLBU:
		v, err := c.LoadByte(addr)
		if err != nil {
			return err
		}
		c.SetReg(inst.Rt, uint32(v))
		x.lastLoad = int16(inst.Rt)
	case OpLH:
		v, err := c.LoadHalf(addr)
		if err != nil {
			return err
		}
		c.SetReg(inst.Rt, uint32(int32(int16(v))))
		x.lastLoad = int16(inst.Rt)
	case OpLHU:
		v, err := c.LoadHalf(addr)
		if err != nil {
			return err
		}
		c.SetReg(inst.Rt, uint32(v))
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
		c.SetReg(inst.Rt, c.Reg(inst.Rt)&mask|w<<shift)
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
		c.SetReg(inst.Rt, c.Reg(inst.Rt)&mask|w>>shift)
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
	switch inst.Op {
	case OpSW:
		return c.StoreWord(addr, c.Reg(inst.Rt))
	case OpSB:
		return c.StoreByte(addr, byte(c.Reg(inst.Rt)))
	case OpSH:
		return c.StoreHalf(addr, uint16(c.Reg(inst.Rt)))
	case OpSWL:
		w, err := c.LoadWord(addr &^ 3)
		if err != nil {
			return err
		}
		b := addr & 3
		shift := 8 * (3 - b)
		keep := w & (uint32(0xFFFFFFFF) << (8 * (b + 1))) // shift of 32 yields 0
		return c.StoreWord(addr&^3, keep|c.Reg(inst.Rt)>>shift)
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
		return c.StoreWord(addr&^3, keep|c.Reg(inst.Rt)<<shift)
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
	fd, fs, ft := inst.Fd(), inst.Fs(), inst.Ft()
	switch inst.Op {
	case OpADDS:
		x.setFS(fd, x.fs(fs)+x.fs(ft))
		c.AddStalls(fpAddStall)
	case OpSUBS:
		x.setFS(fd, x.fs(fs)-x.fs(ft))
		c.AddStalls(fpAddStall)
	case OpMULS:
		x.setFS(fd, x.fs(fs)*x.fs(ft))
		c.AddStalls(fpMulSStall)
	case OpDIVS:
		x.setFS(fd, x.fs(fs)/x.fs(ft))
		c.AddStalls(fpDivSStall)
	case OpADDD:
		x.setFD(fd, x.fd(fs)+x.fd(ft))
		c.AddStalls(fpAddStall)
	case OpSUBD:
		x.setFD(fd, x.fd(fs)-x.fd(ft))
		c.AddStalls(fpAddStall)
	case OpMULD:
		x.setFD(fd, x.fd(fs)*x.fd(ft))
		c.AddStalls(fpMulDStall)
	case OpDIVD:
		x.setFD(fd, x.fd(fs)/x.fd(ft))
		c.AddStalls(fpDivDStall)
	case OpABSS:
		x.setFS(fd, float32(math.Abs(float64(x.fs(fs)))))
		c.AddStalls(fpAddStall)
	case OpABSD:
		x.setFD(fd, math.Abs(x.fd(fs)))
		c.AddStalls(fpAddStall)
	case OpNEGS:
		x.setFS(fd, -x.fs(fs))
		c.AddStalls(fpAddStall)
	case OpNEGD:
		x.setFD(fd, -x.fd(fs))
		c.AddStalls(fpAddStall)
	case OpMOVS:
		x.fpr[fd] = x.fpr[fs]
	case OpMOVD:
		x.fpr[fd] = x.fpr[fs]
		x.fpr[fd+1] = x.fpr[fs+1]
	case OpCVTSD:
		x.setFS(fd, float32(x.fd(fs)))
		c.AddStalls(fpCvtStall)
	case OpCVTSW:
		x.setFS(fd, float32(int32(x.fpr[fs])))
		c.AddStalls(fpCvtStall)
	case OpCVTDS:
		x.setFD(fd, float64(x.fs(fs)))
		c.AddStalls(fpCvtStall)
	case OpCVTDW:
		x.setFD(fd, float64(int32(x.fpr[fs])))
		c.AddStalls(fpCvtStall)
	case OpCVTWS:
		x.fpr[fd] = uint32(int32(x.fs(fs)))
		c.AddStalls(fpCvtStall)
	case OpCVTWD:
		x.fpr[fd] = uint32(int32(x.fd(fs)))
		c.AddStalls(fpCvtStall)
	case OpCEQS:
		x.fpc = x.fs(fs) == x.fs(ft)
		c.AddStalls(fpAddStall)
	case OpCLTS:
		x.fpc = x.fs(fs) < x.fs(ft)
		c.AddStalls(fpAddStall)
	case OpCLES:
		x.fpc = x.fs(fs) <= x.fs(ft)
		c.AddStalls(fpAddStall)
	case OpCEQD:
		x.fpc = x.fd(fs) == x.fd(ft)
		c.AddStalls(fpAddStall)
	case OpCLTD:
		x.fpc = x.fd(fs) < x.fd(ft)
		c.AddStalls(fpAddStall)
	case OpCLED:
		x.fpc = x.fd(fs) <= x.fd(ft)
		c.AddStalls(fpAddStall)
	default:
		return c.Faultf(isa.ErrInvalidOp, "op %v", inst.Op)
	}
	return nil
}
