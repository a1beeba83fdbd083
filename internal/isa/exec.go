package isa

import "errors"

// Execution faults shared by all backends. internal/sim re-exports these
// so existing callers keep matching with errors.Is.
var (
	ErrBadAddress = errors.New("sim: address out of range")
	ErrUnaligned  = errors.New("sim: unaligned access")
	ErrInvalidOp  = errors.New("sim: invalid instruction")
	ErrOverflow   = errors.New("sim: arithmetic overflow")
	ErrBadSyscall = errors.New("sim: unknown syscall")
)

// State is the architectural state an Executor works on directly: the
// general register file, the PC pair, the run's counters and the text
// limit. internal/sim's Machine holds one by value and hands it out
// through CPU.State, so reading a register, advancing the PC or counting
// a stall is a field access, not an interface call. ISA-private state —
// MIPS HI/LO and FP registers, interlock timers — lives inside the
// Executor, not here.
type State struct {
	// GPR is the general register file. GPR[0] always reads zero: write
	// registers through SetReg, which drops writes to it.
	GPR [32]uint32

	// PC and NPC are the current and next fetch addresses. Backends
	// without delay slots keep NPC = PC + WordBytes.
	PC, NPC uint32

	// Icount is the dynamic instruction count so far (the instruction
	// being executed is not yet counted); latency models key off it.
	Icount uint64

	// Stalls counts pipeline stall cycles. Loads and Stores count the
	// instructions that read or wrote data memory; an executor bumps one
	// before it performs the access.
	Stalls, Loads, Stores uint64

	// TextLimit is the first address past the text section: every
	// fetch lies below it.
	TextLimit uint32

	// CountClasses is set when the machine records the instruction mix;
	// an executor calls CPU.CountClass only then.
	CountClasses bool
}

// Reg reads general register r&31.
func (s *State) Reg(r uint8) uint32 { return s.GPR[r&31] }

// SetReg writes general register r&31; writes to register 0 are dropped.
func (s *State) SetReg(r uint8, v uint32) {
	if r &= 31; r != 0 {
		s.GPR[r] = v
	}
}

// CPU is the machine an Executor runs against. internal/sim's Machine
// implements it: the shared State, memory, and host services (syscalls,
// faults, the instruction-mix counters).
type CPU interface {
	// State returns the machine's architectural state. The pointer is
	// the machine's own and stays valid for its lifetime.
	State() *State

	// FetchWord reads the instruction word at pc, enforcing text-limit
	// and alignment checks.
	FetchWord(pc uint32) (Word, error)

	// Data memory, little-endian, with bounds checks (and alignment
	// checks for word/half).
	LoadWord(addr uint32) (uint32, error)
	LoadHalf(addr uint32) (uint16, error)
	LoadByte(addr uint32) (uint8, error)
	StoreWord(addr uint32, v uint32) error
	StoreHalf(addr uint32, v uint16) error
	StoreByte(addr uint32, v uint8) error

	// CountClass attributes the current instruction to its pipeline
	// class. Executors call it only when State.CountClasses is set.
	CountClass(c Class)

	// Syscall performs the host-service call identified by num with
	// argument arg (SPIM numbering: 1 print_int, 4 print_string,
	// 5 read_int, 10 exit, 11 print_char, 17 exit2). hasResult reports
	// whether result should be written back to the ISA's return
	// register.
	Syscall(num, arg uint32) (result uint32, hasResult bool, err error)

	// Exit halts the machine with the given status code.
	Exit(code uint32)

	// Faultf wraps a base fault error (ErrBadAddress etc.) with
	// machine context (current PC, instruction count) for diagnostics.
	Faultf(base error, format string, args ...any) error
}

// Executor runs one backend's instruction semantics over a CPU. One
// Executor instance belongs to one machine (it may hold mutable
// ISA-private state such as HI/LO or interlock countdowns).
type Executor interface {
	// Reset initialises ABI state (stack pointer, globals pointer) on a
	// freshly constructed machine whose text is loaded and whose
	// State.TextLimit is set.
	Reset(c CPU)
	// Step executes the instruction at c.State().PC — fetch, decode,
	// execute, advance the PC pair — and does its accounting in the
	// State. Executors may decode each text word once per run; a store
	// into text must reach the next fetch of that word.
	Step(c CPU) error
}

// ExecBackend is implemented by ISAs that can be simulated.
type ExecBackend interface {
	NewExecutor() Executor
}

// ExecState exposes ISA-private register state for debuggers and tests.
// Executors implement the parts they have; internal/sim surfaces them
// through Machine accessors.
type ExecState interface {
	ReadHI() uint32
	ReadLO() uint32
	ReadFPR(r uint8) uint32
}
