package sim

import (
	"errors"
	"testing"

	"ccrp/internal/asm"
)

// maxFuzzInstr bounds one fuzzed run.
const maxFuzzInstr = 4096

// FuzzRun runs arbitrary bytes as the text of either ISA, with the trace
// on. A run must end in an exit or a typed fault, never a panic. Fuzzed
// text stores into itself, jumps past its end and misaligns its PC, so
// this also guards the executors' decoded-text tables.
func FuzzRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, rv32 bool, text []byte) {
		p := &asm.Program{Name: "fuzz", ISA: "mips", Text: text}
		if rv32 {
			p.ISA = "rv32"
		}
		res, err := New(p, Config{CollectTrace: true, MaxInstr: maxFuzzInstr}).Run()
		if err != nil && !isFault(err) {
			t.Fatalf("untyped error: %v", err)
		}
		if got := res.Trace.Instructions(); uint64(got) != res.Instructions {
			t.Fatalf("trace holds %d instructions, run counted %d", got, res.Instructions)
		}
		if res.Instructions > maxFuzzInstr {
			t.Fatalf("%d instructions past the limit of %d", res.Instructions, maxFuzzInstr)
		}
	})
}

// isFault reports whether err is one of the simulator's typed errors.
func isFault(err error) bool {
	for _, base := range []error{ErrMaxInstructions, ErrBadAddress, ErrUnaligned,
		ErrInvalidOp, ErrOverflow, ErrBadSyscall} {
		if errors.Is(err, base) {
			return true
		}
	}
	return false
}
