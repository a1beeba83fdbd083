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
	st *isa.State // the machine's, from Reset

	// text holds the decoded instruction of each text word, indexed by
	// address/4. An entry is decoded on the word's first fetch; OpInvalid
	// marks one not decoded yet, and a store into text resets the entry
	// it overwrote, so the next fetch decodes what memory then holds.
	text []Inst

	lastLoad int // rd of the previous instruction if it was a load, else -1
}

// Reset implements isa.Executor: it sets the ABI registers and sizes
// the decoded-text table to the machine's text.
func (x *executor) Reset(c isa.CPU) {
	x.st = c.State()
	x.text = make([]Inst, (x.st.TextLimit-asm.TextBase+3)/4)
	x.lastLoad = -1
	x.st.SetReg(RegSP, asm.StackTop)
	x.st.SetReg(RegGP, asm.DataBase+0x8000)
}

// decode fetches the word at pc, decodes it and fills its text entry. A
// fetch outside text or an invalid encoding faults instead and fills
// nothing.
func (x *executor) decode(c isa.CPU, pc uint32) (Inst, error) {
	w, err := c.FetchWord(pc)
	if err != nil {
		return Inst{}, err
	}
	inst := Decode(uint32(w))
	if inst.Op == OpInvalid {
		return Inst{}, c.Faultf(isa.ErrInvalidOp, "word %#08x", uint32(w))
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

	if x.lastLoad >= 0 && usesReg(inst, uint8(x.lastLoad)) {
		s.Stalls++
	}
	x.lastLoad = -1

	rs1 := s.Reg(inst.Rs1)
	rs2 := s.Reg(inst.Rs2)
	next := pc + 4

	switch inst.Op {
	case OpLUI:
		s.SetReg(inst.Rd, uint32(inst.Imm))
	case OpAUIPC:
		s.SetReg(inst.Rd, pc+uint32(inst.Imm))
	case OpJAL:
		s.SetReg(inst.Rd, pc+4)
		next = pc + uint32(inst.Imm)
	case OpJALR:
		t := (rs1 + uint32(inst.Imm)) &^ 1
		s.SetReg(inst.Rd, pc+4)
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
		s.Loads++
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
		s.SetReg(inst.Rd, v)
		if inst.Rd != 0 {
			x.lastLoad = int(inst.Rd)
		}
	case OpSB, OpSH, OpSW:
		addr := rs1 + uint32(inst.Imm)
		s.Stores++
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
		x.invalidate(addr)
	case OpADDI:
		s.SetReg(inst.Rd, rs1+uint32(inst.Imm))
	case OpSLTI:
		s.SetReg(inst.Rd, b2u(int32(rs1) < inst.Imm))
	case OpSLTIU:
		s.SetReg(inst.Rd, b2u(rs1 < uint32(inst.Imm)))
	case OpXORI:
		s.SetReg(inst.Rd, rs1^uint32(inst.Imm))
	case OpORI:
		s.SetReg(inst.Rd, rs1|uint32(inst.Imm))
	case OpANDI:
		s.SetReg(inst.Rd, rs1&uint32(inst.Imm))
	case OpSLLI:
		s.SetReg(inst.Rd, rs1<<uint32(inst.Imm&31))
	case OpSRLI:
		s.SetReg(inst.Rd, rs1>>uint32(inst.Imm&31))
	case OpSRAI:
		s.SetReg(inst.Rd, uint32(int32(rs1)>>uint32(inst.Imm&31)))
	case OpADD:
		s.SetReg(inst.Rd, rs1+rs2)
	case OpSUB:
		s.SetReg(inst.Rd, rs1-rs2)
	case OpSLL:
		s.SetReg(inst.Rd, rs1<<(rs2&31))
	case OpSLT:
		s.SetReg(inst.Rd, b2u(int32(rs1) < int32(rs2)))
	case OpSLTU:
		s.SetReg(inst.Rd, b2u(rs1 < rs2))
	case OpXOR:
		s.SetReg(inst.Rd, rs1^rs2)
	case OpSRL:
		s.SetReg(inst.Rd, rs1>>(rs2&31))
	case OpSRA:
		s.SetReg(inst.Rd, uint32(int32(rs1)>>(rs2&31)))
	case OpOR:
		s.SetReg(inst.Rd, rs1|rs2)
	case OpAND:
		s.SetReg(inst.Rd, rs1&rs2)
	case OpMUL:
		s.Stalls += mulStalls
		s.SetReg(inst.Rd, rs1*rs2)
	case OpMULH:
		s.Stalls += mulStalls
		s.SetReg(inst.Rd, uint32(int64(int32(rs1))*int64(int32(rs2))>>32))
	case OpMULHSU:
		s.Stalls += mulStalls
		s.SetReg(inst.Rd, uint32(int64(int32(rs1))*int64(rs2)>>32))
	case OpMULHU:
		s.Stalls += mulStalls
		s.SetReg(inst.Rd, uint32(uint64(rs1)*uint64(rs2)>>32))
	case OpDIV:
		s.Stalls += divStalls
		switch {
		case rs2 == 0:
			s.SetReg(inst.Rd, 0xFFFFFFFF)
		case rs1 == 0x80000000 && rs2 == 0xFFFFFFFF:
			s.SetReg(inst.Rd, 0x80000000)
		default:
			s.SetReg(inst.Rd, uint32(int32(rs1)/int32(rs2)))
		}
	case OpDIVU:
		s.Stalls += divStalls
		if rs2 == 0 {
			s.SetReg(inst.Rd, 0xFFFFFFFF)
		} else {
			s.SetReg(inst.Rd, rs1/rs2)
		}
	case OpREM:
		s.Stalls += divStalls
		switch {
		case rs2 == 0:
			s.SetReg(inst.Rd, rs1)
		case rs1 == 0x80000000 && rs2 == 0xFFFFFFFF:
			s.SetReg(inst.Rd, 0)
		default:
			s.SetReg(inst.Rd, uint32(int32(rs1)%int32(rs2)))
		}
	case OpREMU:
		s.Stalls += divStalls
		if rs2 == 0 {
			s.SetReg(inst.Rd, rs1)
		} else {
			s.SetReg(inst.Rd, rs1%rs2)
		}
	case OpFENCE:
		// No memory system to order.
	case OpECALL:
		res, hasRes, err := c.Syscall(s.Reg(RegA7), s.Reg(RegA0))
		if err != nil {
			return err
		}
		if hasRes {
			s.SetReg(RegA0, res)
		}
	case OpEBREAK:
		return c.Faultf(isa.ErrInvalidOp, "ebreak")
	}

	s.PC = next
	s.NPC = next + 4
	return nil
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
