// Package isa defines the instruction-set-architecture abstraction the
// rest of the reproduction is built on: word decode and classification,
// register naming, disassembly, and the optional capabilities — assembler
// backend, executor, contract words — that let the generic assembler
// (internal/asm) and simulator (internal/sim) drive any registered
// backend.
//
// The CCRP scheme itself is ISA-agnostic: it compresses opaque
// instruction bytes in 32-byte blocks. What needs the ISA is everything
// around it — assembling the corpus, simulating it for traces, and
// disassembling recovered text. Backends (internal/mips, internal/riscv)
// register themselves here at init time; consumers look them up by name
// and never import a backend directly.
package isa

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Word is one 32-bit instruction word in memory order. Backends with
// narrower encodings (RVC) expand to this width before classification.
type Word uint32

// Class groups operations by pipeline behaviour. The class set is the
// union of what the backends need; a backend that lacks a class (RISC-V
// has no HI/LO) simply never produces it.
type Class uint8

const (
	ClassALU    Class = iota // single-cycle integer
	ClassShift               // single-cycle shifts
	ClassMulDiv              // multi-cycle multiply/divide
	ClassHILO                // HI/LO moves (MIPS interlock consumers)
	ClassLoad                // memory read
	ClassStore               // memory write
	ClassBranch              // conditional PC-relative
	ClassJump                // unconditional jump / jump-and-link / register jump
	ClassSys                 // syscall, break, fences
	ClassFPU                 // floating-point arithmetic / moves
	ClassFPBr                // floating-point condition branch
	NumClasses
)

var classNames = [NumClasses]string{
	"alu", "shift", "muldiv", "hilo", "load", "store",
	"branch", "jump", "sys", "fpu", "fpbr",
}

// String returns the metric-label name of the class.
func (c Class) String() string {
	if c < NumClasses {
		return classNames[c]
	}
	return fmt.Sprintf("class%d", uint8(c))
}

// Info is the ISA-independent view of one decoded instruction word: the
// classification and control-flow facts the simulator's stall model, the
// trace generator, and the compression layout analyses need.
type Info struct {
	Valid        bool
	Class        Class
	Mnemonic     string
	IsBranch     bool // conditional control transfer (incl. FP branches)
	IsJump       bool // unconditional control transfer
	IsLoad       bool
	IsStore      bool
	HasDelaySlot bool // the following word executes in a delay slot
	Target       uint32
	TargetKnown  bool // Target holds the static destination (PC-relative or absolute direct)
}

// ISA is one instruction set backend. Implementations are stateless and
// safe for concurrent use.
type ISA interface {
	// Name is the registry key ("mips", "riscv").
	Name() string
	// WordBytes is the instruction granularity in bytes.
	WordBytes() int
	// Decode classifies the word at address pc.
	Decode(w Word, pc uint32) Info
	// Disassemble renders the word at pc in the backend's conventional
	// assembler syntax, with control-transfer targets as absolute hex.
	Disassemble(w Word, pc uint32) string
	// RegName names general-purpose register r; out-of-range registers
	// render as "$?N"-style placeholders, never as plausible names.
	RegName(r uint8) string
	// FPRegName names floating-point register r under the same contract.
	FPRegName(r uint8) string
	// RegNumber resolves a register name (without any ISA-specific
	// sigil) to its number.
	RegNumber(name string) (uint8, bool)
}

// Evaluator resolves an assembler expression (numbers, symbols, %hi/%lo)
// to its 32-bit value. The generic front end of internal/asm provides
// it; during pass 1 symbols are unresolved and evaluate to an error.
type Evaluator func(expr string) (uint32, error)

// AsmBackend is the per-ISA half of the two-pass assembler. The generic
// front end (internal/asm) owns parsing, labels, sections, and data
// directives; the backend owns mnemonics, operand syntax, and encoding.
type AsmBackend interface {
	// InstSize returns the byte size of op during pass 1. Sizes must
	// not depend on label values; eval resolves constants only.
	InstSize(op string, args []string, eval Evaluator) (int, error)
	// EncodeInst assembles one statement at address addr during pass 2
	// and appends its words to dst, the way strconv.AppendInt appends
	// digits, so a caller can reuse one buffer for every statement. On
	// error it returns dst unchanged.
	EncodeInst(dst []Word, op string, args []string, addr uint32, eval Evaluator) ([]Word, error)
}

// WordEnumerator yields a representative set of valid instruction words
// for contract tests: every operation, varied register and immediate
// fields. Each word must disassemble to a line that the assembler
// encodes back to that word.
type WordEnumerator interface {
	ContractWords() []Word
}

// Registry of ISA backends, populated by backend init functions.
var (
	regMu    sync.RWMutex
	registry = map[string]ISA{}
)

// DefaultName is the backend assumed when a program does not name one —
// the MIPS R2000 of the source paper.
const DefaultName = "mips"

// ErrUnknownISA is wrapped by Lookup failures.
var ErrUnknownISA = errors.New("isa: unknown backend")

// Register adds a backend; it panics on duplicate names (two backends
// claiming one name is a programming error, not a runtime condition).
func Register(i ISA) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[i.Name()]; dup {
		panic("isa: duplicate backend " + i.Name())
	}
	registry[i.Name()] = i
}

// Lookup finds a registered backend. An empty name selects DefaultName.
func Lookup(name string) (ISA, error) {
	if name == "" {
		name = DefaultName
	}
	regMu.RLock()
	defer regMu.RUnlock()
	if i, ok := registry[name]; ok {
		return i, nil
	}
	return nil, fmt.Errorf("%w %q (registered: %v)", ErrUnknownISA, name, namesLocked())
}

// MustLookup is Lookup for contexts where the backend is known to be
// linked in (tests, backends resolving themselves).
func MustLookup(name string) ISA {
	i, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return i
}

// Names lists registered backends in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
