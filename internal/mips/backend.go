package mips

import "ccrp/internal/isa"

// Backend implements isa.ISA for the MIPS R2000, plus the optional
// capabilities: the assembler backend (asmbackend.go), the simulator
// executor (exec.go), and the contract word enumerator (contract.go).
// It registers itself under the name "mips", which is also the isa
// package default; consumers link it in with a blank import.
type Backend struct{}

func init() { isa.Register(Backend{}) }

// Compile-time capability checks.
var (
	_ isa.ISA            = Backend{}
	_ isa.AsmBackend     = Backend{}
	_ isa.ExecBackend    = Backend{}
	_ isa.WordEnumerator = Backend{}
)

func (Backend) Name() string { return "mips" }

func (Backend) WordBytes() int { return 4 }

func (Backend) Decode(w isa.Word, pc uint32) isa.Info {
	i := Decode(Word(w))
	info := isa.Info{
		Valid:        i.Op != OpInvalid,
		Class:        i.Op.Class(),
		Mnemonic:     i.Op.String(),
		IsBranch:     i.IsBranch(),
		IsJump:       i.IsJump(),
		IsLoad:       i.IsLoad(),
		IsStore:      i.IsStore(),
		HasDelaySlot: i.HasDelaySlot(),
	}
	switch {
	case info.IsBranch:
		info.Target, info.TargetKnown = i.BranchTarget(pc), true
	case i.Op == OpJ || i.Op == OpJAL:
		info.Target, info.TargetKnown = i.JumpTarget(pc), true
	}
	return info
}

func (Backend) Disassemble(w isa.Word, pc uint32) string {
	return Disassemble(Word(w), pc)
}

func (Backend) RegName(r uint8) string { return RegName(r) }

func (Backend) FPRegName(r uint8) string { return FPRegName(r) }

func (Backend) RegNumber(name string) (uint8, bool) { return RegNumber(name) }
