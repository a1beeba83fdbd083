// Package sim is a functional (architectural) simulator for user-mode
// programs produced by internal/asm. The Machine owns the generic state —
// memory, the general register file, the PC pair, counters, syscalls —
// and delegates instruction semantics to the program's isa.Executor
// backend (MIPS R2000 with delay slots, HI/LO latency, and a COP1 subset
// by default; RV32I via internal/riscv).
//
// Its role in the reproduction is the one pixie played in the paper: it
// documents the detailed behaviour of each program and generates
// instruction address traces for the cache simulations (internal/core).
package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"ccrp/internal/asm"
	"ccrp/internal/isa"
	"ccrp/internal/metrics"
	"ccrp/internal/trace"
)

// Simulation errors. The fault values are shared with the ISA backends
// through internal/isa so errors.Is works on either side.
var (
	ErrMaxInstructions = errors.New("sim: instruction limit exceeded")
	ErrBadAddress      = isa.ErrBadAddress
	ErrUnaligned       = isa.ErrUnaligned
	ErrInvalidOp       = isa.ErrInvalidOp
	ErrOverflow        = isa.ErrOverflow
	ErrBadSyscall      = isa.ErrBadSyscall
)

// Config controls a simulation run.
type Config struct {
	Stdout       io.Writer // syscall console output; nil discards it
	MaxInstr     uint64    // dynamic instruction limit; 0 means 100M
	CollectTrace bool      // record a trace.Trace in the Result
	Input        []int32   // values returned by the read_int syscall, in order

	// Metrics, when set, receives the dynamic instruction mix by pipeline
	// class and per-service syscall counts. Nil (the default) keeps the
	// dispatch loop uninstrumented.
	Metrics *metrics.Registry
}

// Result summarizes a completed run.
type Result struct {
	Trace        *trace.Trace // nil unless Config.CollectTrace
	Instructions uint64
	Stalls       uint64 // pipeline stall cycles (load-use, HI/LO, FP)
	Loads        uint64
	Stores       uint64
	ExitCode     int32
}

// BaseCycles returns instructions + stalls: the execution cycles a
// perfect (always-hit) instruction memory would give. Cache refill and
// data access penalties are added by the system model on top of this.
func (r *Result) BaseCycles() uint64 { return r.Instructions + r.Stalls }

// Memory is paged: a page is allocated on its first write, and a page
// never written reads as zeros, so a machine holds only the pages its
// program touches, not the whole address space.
const (
	pageShift = 16
	pageBytes = 1 << pageShift
	pageMask  = pageBytes - 1
	numPages  = asm.AddrSpace / pageBytes
)

type page [pageBytes]byte

// zeroPage stands in, read-only, for every page not yet written.
var zeroPage page

// Machine is one processor plus its 24-bit physical memory. It implements
// isa.CPU: the executor works on the machine's isa.State directly and
// reaches memory, syscalls and faults through the machine. ISA-private
// state (HI/LO, FP registers, interlock timers, decoded text) lives in
// the executor.
type Machine struct {
	cfg   Config
	st    isa.State
	pages [numPages]*page // nil until first written

	inputPos int
	rec      *trace.Recorder // nil unless cfg.CollectTrace
	final    *trace.Trace    // the trace of a run that exited, once Run has returned it
	exitCode int32
	done     bool
	im       *instruments // nil when metrics are disabled

	exec    isa.Executor
	execErr error // deferred ISA-resolution failure, reported on first step
}

var _ isa.CPU = (*Machine)(nil)

// New loads prog into a fresh machine. The executor backend is resolved
// from prog.ISA (empty selects the default); a resolution failure is
// reported by the first Run or Step call.
func New(prog *asm.Program, cfg Config) *Machine {
	if cfg.MaxInstr == 0 {
		cfg.MaxInstr = 100_000_000
	}
	m := &Machine{cfg: cfg}
	m.st.PC, m.st.NPC = prog.Entry, prog.Entry+4
	m.load(asm.TextBase, prog.Text)
	m.load(asm.DataBase, prog.Data)
	m.st.TextLimit = asm.TextBase + uint32(len(prog.Text))
	if cfg.CollectTrace {
		m.rec = &trace.Recorder{}
	}
	if cfg.Metrics != nil {
		m.im = newInstruments(cfg.Metrics)
		m.st.CountClasses = true
	}
	arch, err := isa.Lookup(prog.ISA)
	if err != nil {
		m.execErr = err
		return m
	}
	eb, ok := arch.(isa.ExecBackend)
	if !ok {
		m.execErr = fmt.Errorf("sim: ISA %q has no execution backend", arch.Name())
		return m
	}
	m.st.NPC = prog.Entry + uint32(arch.WordBytes())
	m.exec = eb.NewExecutor()
	m.exec.Reset(m)
	return m
}

// State returns the machine's architectural state (isa.CPU).
func (m *Machine) State() *isa.State { return &m.st }

// Reg returns the value of GPR r.
func (m *Machine) Reg(r uint8) uint32 { return m.st.Reg(r) }

// SetReg writes GPR r (writes to register 0 are ignored).
func (m *Machine) SetReg(r uint8, v uint32) { m.st.SetReg(r, v) }

// PC returns the current program counter.
func (m *Machine) PC() uint32 { return m.st.PC }

// CountClass attributes the current instruction to its pipeline class.
func (m *Machine) CountClass(c isa.Class) {
	if m.im != nil {
		m.im.class[c].Inc()
	}
}

// Exit halts the machine with the given status code.
func (m *Machine) Exit(code uint32) {
	m.done = true
	m.exitCode = int32(code)
}

// Faultf builds an execution error annotated with the faulting PC.
func (m *Machine) Faultf(base error, format string, args ...any) error {
	return fmt.Errorf("%w at pc=%#08x: %s", base, m.st.PC, fmt.Sprintf(format, args...))
}

// FetchWord reads the instruction word at pc, enforcing the text limit
// and word alignment.
func (m *Machine) FetchWord(pc uint32) (isa.Word, error) {
	if pc >= m.st.TextLimit || pc&3 != 0 {
		return 0, m.Faultf(ErrBadAddress, "instruction fetch outside text (limit %#x)", m.st.TextLimit)
	}
	w, err := m.LoadWord(pc)
	return isa.Word(w), err
}

func (m *Machine) checkAddr(addr uint32, size uint32) error {
	if addr >= asm.AddrSpace || addr+size > asm.AddrSpace {
		return m.Faultf(ErrBadAddress, "%#08x", addr)
	}
	return nil
}

// read returns memory from addr to the end of its page. A checked,
// aligned access never crosses a page, because a page is a whole number
// of words.
func (m *Machine) read(addr uint32) []byte {
	p := m.pages[addr>>pageShift]
	if p == nil {
		p = &zeroPage
	}
	return p[addr&pageMask:]
}

// write is read for a store: it allocates the page on first write.
func (m *Machine) write(addr uint32) []byte {
	p := m.pages[addr>>pageShift]
	if p == nil {
		p = new(page)
		m.pages[addr>>pageShift] = p
	}
	return p[addr&pageMask:]
}

// load copies b into memory at addr, page by page. Bytes past the
// address space are dropped.
func (m *Machine) load(addr uint32, b []byte) {
	for len(b) > 0 && addr < asm.AddrSpace {
		n := copy(m.write(addr), b)
		b = b[n:]
		addr += uint32(n)
	}
}

// LoadWord reads an aligned word of data memory.
func (m *Machine) LoadWord(addr uint32) (uint32, error) {
	if addr&3 != 0 {
		return 0, m.Faultf(ErrUnaligned, "lw %#08x", addr)
	}
	if err := m.checkAddr(addr, 4); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(m.read(addr)), nil
}

// StoreWord writes an aligned word of data memory.
func (m *Machine) StoreWord(addr uint32, v uint32) error {
	if addr&3 != 0 {
		return m.Faultf(ErrUnaligned, "sw %#08x", addr)
	}
	if err := m.checkAddr(addr, 4); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(m.write(addr), v)
	return nil
}

// LoadHalf reads an aligned halfword of data memory.
func (m *Machine) LoadHalf(addr uint32) (uint16, error) {
	if addr&1 != 0 {
		return 0, m.Faultf(ErrUnaligned, "lh %#08x", addr)
	}
	if err := m.checkAddr(addr, 2); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(m.read(addr)), nil
}

// StoreHalf writes an aligned halfword of data memory.
func (m *Machine) StoreHalf(addr uint32, v uint16) error {
	if addr&1 != 0 {
		return m.Faultf(ErrUnaligned, "sh %#08x", addr)
	}
	if err := m.checkAddr(addr, 2); err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(m.write(addr), v)
	return nil
}

// LoadByte reads a byte of data memory.
func (m *Machine) LoadByte(addr uint32) (byte, error) {
	if err := m.checkAddr(addr, 1); err != nil {
		return 0, err
	}
	return m.read(addr)[0], nil
}

// StoreByte writes a byte of data memory.
func (m *Machine) StoreByte(addr uint32, v byte) error {
	if err := m.checkAddr(addr, 1); err != nil {
		return err
	}
	m.write(addr)[0] = v
	return nil
}

// step runs the executor for one instruction and completes the machine's
// per-instruction accounting on success.
func (m *Machine) step() error {
	if m.exec == nil {
		return m.execErr
	}
	s := &m.st
	pc, loads, stores := s.PC, s.Loads, s.Stores
	if err := m.exec.Step(m); err != nil {
		return err
	}
	if m.rec != nil {
		m.rec.Add(pc, s.Loads != loads, s.Stores != stores)
	}
	s.Icount++
	return nil
}

// Run executes until the program exits (syscall 10/17), an error occurs,
// or the instruction limit is hit. The result's trace holds its runs in
// an exactly sized slice, so a caller that keeps it keeps no slack. Once
// the program has exited its recording is finished: the recorder's
// blocks go back to their pool, and a later Run returns the same runs.
// A run stopped by an error could still be stepped on, so its trace is a
// snapshot and the recording goes on.
func (m *Machine) Run() (*Result, error) {
	err := m.run()
	if m.done && m.rec != nil {
		m.final = m.rec.Trace(m.st.Stalls)
		m.rec = nil
	}
	return m.result(), err
}

func (m *Machine) run() error {
	for !m.done {
		if m.st.Icount >= m.cfg.MaxInstr {
			return m.Faultf(ErrMaxInstructions, "%d executed", m.st.Icount)
		}
		if err := m.step(); err != nil {
			return err
		}
	}
	return nil
}

func (m *Machine) result() *Result {
	r := &Result{
		Instructions: m.st.Icount,
		Stalls:       m.st.Stalls,
		Loads:        m.st.Loads,
		Stores:       m.st.Stores,
		ExitCode:     m.exitCode,
	}
	switch {
	case m.final != nil:
		r.Trace = &trace.Trace{Events: m.final.Events, Stalls: m.final.Stalls}
	case m.rec != nil:
		r.Trace = m.rec.Snapshot(m.st.Stalls)
	}
	return r
}

// Step executes exactly one instruction; it is a no-op once the program
// has exited. Drivers like the ccdb debugger use it for single-stepping.
func (m *Machine) Step() error {
	if m.done {
		return nil
	}
	if m.st.Icount >= m.cfg.MaxInstr {
		return m.Faultf(ErrMaxInstructions, "%d executed", m.st.Icount)
	}
	return m.step()
}

// Done reports whether the program has exited.
func (m *Machine) Done() bool { return m.done }

// Instructions returns the dynamic instruction count so far.
func (m *Machine) Instructions() uint64 { return m.st.Icount }

// Snapshot returns the current result counters without ending the run.
// Its trace is a copy of the runs so far, the open one included, and
// shares no memory with the machine or with any other result.
func (m *Machine) Snapshot() *Result {
	r := m.result()
	if m.final != nil {
		r.Trace.Events = slices.Clone(r.Trace.Events)
	}
	return r
}

// execState returns the executor's optional register-inspection surface.
func (m *Machine) execState() (isa.ExecState, bool) {
	s, ok := m.exec.(isa.ExecState)
	return s, ok
}

// HI and LO expose the multiply/divide result registers on backends that
// have them (zero otherwise).
func (m *Machine) HI() uint32 {
	if s, ok := m.execState(); ok {
		return s.ReadHI()
	}
	return 0
}

// LO is HI's companion accessor.
func (m *Machine) LO() uint32 {
	if s, ok := m.execState(); ok {
		return s.ReadLO()
	}
	return 0
}

// FPR returns the raw bits of FP register r (zero on backends without a
// floating-point register file).
func (m *Machine) FPR(r uint8) uint32 {
	if s, ok := m.execState(); ok {
		return s.ReadFPR(r)
	}
	return 0
}

// ReadWord reads a word from memory without tracing (for debuggers).
func (m *Machine) ReadWord(addr uint32) (uint32, error) { return m.LoadWord(addr) }

// PeekByte reads a byte from memory without tracing.
func (m *Machine) PeekByte(addr uint32) (byte, error) { return m.LoadByte(addr) }
