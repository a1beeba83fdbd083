// Package asm implements a generic two-pass assembler front end,
// sufficient to build the embedded workload corpus from source. The front
// end owns sections, labels, data directives, expressions, and %hi/%lo
// relocations; instruction sizing and encoding are delegated to an
// isa.AsmBackend (MIPS R2000 by default, RV32I via internal/riscv), so
// pseudo-instruction sets and register syntax are per-backend.
//
// The assembler allocates per program, not per line. Pass 1 parses each
// line once, binding its labels and sizing it, and keeps the statements
// pass 2 emits as values in one slice whose operands are substrings of
// the source in one shared slice. Pass 2 encodes each instruction by
// appending to one reused word buffer (isa.AsmBackend.EncodeInst), into
// text and data sections sized from the end addresses pass 1 computed.
//
// The assembler plays the role of the paper's "traditional RISC compiler
// and linker": its output is a plain RISC object image whose text section
// is then handed, unmodified, to the CCRP compression tool.
package asm

import (
	"fmt"
	"sort"
)

// Memory layout of the embedded target. The paper assumes a contiguous
// 24-bit physical address space with instructions starting at the bottom
// (the LAT is indexed by a shifted version of the block address, which
// requires contiguous instruction space).
const (
	TextBase  uint32 = 0x00000000 // instruction space, compressed in ROM
	DataBase  uint32 = 0x00100000 // read/write data
	StackTop  uint32 = 0x00FFFFF0 // initial $sp, grows down
	AddrSpace uint32 = 1 << 24    // 24-bit physical space
)

// Program is a fully linked, loadable image.
type Program struct {
	Name    string
	ISA     string // registered ISA backend name ("" means the default)
	Text    []byte // instruction bytes, words little-endian, at TextBase
	Data    []byte // initialized data at DataBase
	Entry   uint32 // initial PC (symbol __start if defined, else TextBase)
	Symbols map[string]uint32
	BSSSize uint32 // zero-initialized bytes following Data
}

// TextWords returns the number of instruction words in the text section.
func (p *Program) TextWords() int { return len(p.Text) / 4 }

// SymbolsSorted returns symbol names in address order (for listings).
func (p *Program) SymbolsSorted() []string {
	names := make([]string, 0, len(p.Symbols))
	for n := range p.Symbols {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if p.Symbols[names[i]] != p.Symbols[names[j]] {
			return p.Symbols[names[i]] < p.Symbols[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// Error is an assembly diagnostic tied to a source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}
