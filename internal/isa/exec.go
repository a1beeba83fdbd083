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

// CPU is the machine state an Executor runs against. internal/sim's
// Machine implements it: memory, the general register file, the PC pair,
// counters, and host services (syscalls, trace events). ISA-private
// state — MIPS HI/LO and FP registers, interlock timers — lives inside
// the Executor, not here.
type CPU interface {
	// PC/NPC are the current and next fetch addresses. Backends without
	// delay slots keep NPC = PC + WordBytes.
	PC() uint32
	SetPC(pc uint32)
	NPC() uint32
	SetNPC(pc uint32)

	// Reg reads general register r&31; SetReg ignores writes to r0.
	Reg(r uint8) uint32
	SetReg(r uint8, v uint32)

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

	// Icount is the dynamic instruction count so far (the instruction
	// being executed is not yet counted); latency models key off it.
	Icount() uint64

	// Accounting hooks: stall cycles, per-class instruction counts, and
	// whether the word just executed read or wrote data memory.
	AddStalls(n uint64)
	CountClass(c Class)
	NoteLoad()
	NoteStore()

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
	// freshly constructed machine.
	Reset(c CPU)
	// Step executes the instruction at c.PC() — fetch, decode, execute,
	// advance the PC pair — and performs all accounting via c.
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
