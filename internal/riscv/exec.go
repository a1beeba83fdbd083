package riscv

import (
	"ccrp/internal/asm"
	"ccrp/internal/isa"
)

// Timing model: single-issue in-order core, one instruction per cycle,
// plus a one-cycle load-use interlock and fixed multiply/divide
// latencies in the same spirit as the R2000 model in internal/mips.
const (
	mulStalls = 3
	divStalls = 34
)

// NewExecutor implements isa.ExecBackend.
func (Backend) NewExecutor() isa.Executor { return &executor{lastLoad: -1} }

type executor struct {
	lastLoad int // rd of the previous instruction if it was a load, else -1
}

// Reset implements isa.Executor.
func (x *executor) Reset(c isa.CPU) {
	x.lastLoad = -1
	c.SetReg(RegSP, asm.StackTop)
	c.SetReg(RegGP, asm.DataBase+0x8000)
}

// usesReg reports whether inst reads register r (for the load-use
// interlock).
func usesReg(inst Inst, r uint8) bool {
	if r == 0 {
		return false
	}
	switch inst.Op {
	case OpLUI, OpAUIPC, OpJAL, OpFENCE, OpECALL, OpEBREAK:
		return false
	case OpJALR, OpLB, OpLH, OpLW, OpLBU, OpLHU,
		OpADDI, OpSLTI, OpSLTIU, OpXORI, OpORI, OpANDI,
		OpSLLI, OpSRLI, OpSRAI:
		return inst.Rs1 == r
	default:
		return inst.Rs1 == r || inst.Rs2 == r
	}
}

// Step implements isa.Executor: fetch, decode, execute one RV32I+M
// instruction. RISC-V has no delay slot, so the PC pair advances in
// lockstep (NPC = PC + 4 except across taken transfers).
func (x *executor) Step(c isa.CPU) error {
	pc := c.PC()
	w, err := c.FetchWord(pc)
	if err != nil {
		return err
	}
	inst := Decode(uint32(w))
	if inst.Op == OpInvalid {
		return c.Faultf(isa.ErrInvalidOp, "word %#08x", uint32(w))
	}
	c.CountClass(inst.Op.Class())

	if x.lastLoad >= 0 && usesReg(inst, uint8(x.lastLoad)) {
		c.AddStalls(1)
	}
	x.lastLoad = -1

	rs1 := c.Reg(inst.Rs1)
	rs2 := c.Reg(inst.Rs2)
	next := pc + 4

	switch inst.Op {
	case OpLUI:
		c.SetReg(inst.Rd, uint32(inst.Imm))
	case OpAUIPC:
		c.SetReg(inst.Rd, pc+uint32(inst.Imm))
	case OpJAL:
		c.SetReg(inst.Rd, pc+4)
		next = pc + uint32(inst.Imm)
	case OpJALR:
		t := (rs1 + uint32(inst.Imm)) &^ 1
		c.SetReg(inst.Rd, pc+4)
		next = t
	case OpBEQ:
		if rs1 == rs2 {
			next = pc + uint32(inst.Imm)
		}
	case OpBNE:
		if rs1 != rs2 {
			next = pc + uint32(inst.Imm)
		}
	case OpBLT:
		if int32(rs1) < int32(rs2) {
			next = pc + uint32(inst.Imm)
		}
	case OpBGE:
		if int32(rs1) >= int32(rs2) {
			next = pc + uint32(inst.Imm)
		}
	case OpBLTU:
		if rs1 < rs2 {
			next = pc + uint32(inst.Imm)
		}
	case OpBGEU:
		if rs1 >= rs2 {
			next = pc + uint32(inst.Imm)
		}
	case OpLB, OpLH, OpLW, OpLBU, OpLHU:
		addr := rs1 + uint32(inst.Imm)
		c.NoteLoad()
		var v uint32
		switch inst.Op {
		case OpLB:
			b, err := c.LoadByte(addr)
			if err != nil {
				return err
			}
			v = uint32(int32(int8(b)))
		case OpLBU:
			b, err := c.LoadByte(addr)
			if err != nil {
				return err
			}
			v = uint32(b)
		case OpLH:
			h, err := c.LoadHalf(addr)
			if err != nil {
				return err
			}
			v = uint32(int32(int16(h)))
		case OpLHU:
			h, err := c.LoadHalf(addr)
			if err != nil {
				return err
			}
			v = uint32(h)
		default: // OpLW
			v, err = c.LoadWord(addr)
			if err != nil {
				return err
			}
		}
		c.SetReg(inst.Rd, v)
		if inst.Rd != 0 {
			x.lastLoad = int(inst.Rd)
		}
	case OpSB, OpSH, OpSW:
		addr := rs1 + uint32(inst.Imm)
		c.NoteStore()
		switch inst.Op {
		case OpSB:
			err = c.StoreByte(addr, uint8(rs2))
		case OpSH:
			err = c.StoreHalf(addr, uint16(rs2))
		default:
			err = c.StoreWord(addr, rs2)
		}
		if err != nil {
			return err
		}
	case OpADDI:
		c.SetReg(inst.Rd, rs1+uint32(inst.Imm))
	case OpSLTI:
		c.SetReg(inst.Rd, b2u(int32(rs1) < inst.Imm))
	case OpSLTIU:
		c.SetReg(inst.Rd, b2u(rs1 < uint32(inst.Imm)))
	case OpXORI:
		c.SetReg(inst.Rd, rs1^uint32(inst.Imm))
	case OpORI:
		c.SetReg(inst.Rd, rs1|uint32(inst.Imm))
	case OpANDI:
		c.SetReg(inst.Rd, rs1&uint32(inst.Imm))
	case OpSLLI:
		c.SetReg(inst.Rd, rs1<<uint32(inst.Imm&31))
	case OpSRLI:
		c.SetReg(inst.Rd, rs1>>uint32(inst.Imm&31))
	case OpSRAI:
		c.SetReg(inst.Rd, uint32(int32(rs1)>>uint32(inst.Imm&31)))
	case OpADD:
		c.SetReg(inst.Rd, rs1+rs2)
	case OpSUB:
		c.SetReg(inst.Rd, rs1-rs2)
	case OpSLL:
		c.SetReg(inst.Rd, rs1<<(rs2&31))
	case OpSLT:
		c.SetReg(inst.Rd, b2u(int32(rs1) < int32(rs2)))
	case OpSLTU:
		c.SetReg(inst.Rd, b2u(rs1 < rs2))
	case OpXOR:
		c.SetReg(inst.Rd, rs1^rs2)
	case OpSRL:
		c.SetReg(inst.Rd, rs1>>(rs2&31))
	case OpSRA:
		c.SetReg(inst.Rd, uint32(int32(rs1)>>(rs2&31)))
	case OpOR:
		c.SetReg(inst.Rd, rs1|rs2)
	case OpAND:
		c.SetReg(inst.Rd, rs1&rs2)
	case OpMUL:
		c.AddStalls(mulStalls)
		c.SetReg(inst.Rd, rs1*rs2)
	case OpMULH:
		c.AddStalls(mulStalls)
		c.SetReg(inst.Rd, uint32(int64(int32(rs1))*int64(int32(rs2))>>32))
	case OpMULHSU:
		c.AddStalls(mulStalls)
		c.SetReg(inst.Rd, uint32(int64(int32(rs1))*int64(rs2)>>32))
	case OpMULHU:
		c.AddStalls(mulStalls)
		c.SetReg(inst.Rd, uint32(uint64(rs1)*uint64(rs2)>>32))
	case OpDIV:
		c.AddStalls(divStalls)
		switch {
		case rs2 == 0:
			c.SetReg(inst.Rd, 0xFFFFFFFF)
		case rs1 == 0x80000000 && rs2 == 0xFFFFFFFF:
			c.SetReg(inst.Rd, 0x80000000)
		default:
			c.SetReg(inst.Rd, uint32(int32(rs1)/int32(rs2)))
		}
	case OpDIVU:
		c.AddStalls(divStalls)
		if rs2 == 0 {
			c.SetReg(inst.Rd, 0xFFFFFFFF)
		} else {
			c.SetReg(inst.Rd, rs1/rs2)
		}
	case OpREM:
		c.AddStalls(divStalls)
		switch {
		case rs2 == 0:
			c.SetReg(inst.Rd, rs1)
		case rs1 == 0x80000000 && rs2 == 0xFFFFFFFF:
			c.SetReg(inst.Rd, 0)
		default:
			c.SetReg(inst.Rd, uint32(int32(rs1)%int32(rs2)))
		}
	case OpREMU:
		c.AddStalls(divStalls)
		if rs2 == 0 {
			c.SetReg(inst.Rd, rs1)
		} else {
			c.SetReg(inst.Rd, rs1%rs2)
		}
	case OpFENCE:
		// No memory system to order.
	case OpECALL:
		res, hasRes, err := c.Syscall(c.Reg(RegA7), c.Reg(RegA0))
		if err != nil {
			return err
		}
		if hasRes {
			c.SetReg(RegA0, res)
		}
	case OpEBREAK:
		return c.Faultf(isa.ErrInvalidOp, "ebreak")
	}

	c.SetPC(next)
	c.SetNPC(next + 4)
	return nil
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
