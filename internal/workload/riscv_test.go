package workload

import (
	"testing"

	"ccrp/internal/isa"
	"ccrp/internal/riscv"
)

func TestRISCVWorkloadsRunToCompletion(t *testing.T) {
	for _, w := range RISCV() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			res, out, err := w.Run()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if out != w.WantOutput {
				t.Errorf("output = %q, want %q", out, w.WantOutput)
			}
			if res.Instructions < 10_000 {
				t.Errorf("trace too short: %d instructions", res.Instructions)
			}
			if res.Instructions > maxWorkloadInstr {
				t.Errorf("trace too long: %d instructions", res.Instructions)
			}
		})
	}
}

func TestRISCVRegistry(t *testing.T) {
	if len(RISCV()) < 2 {
		t.Fatalf("RV32 corpus has %d programs, want >= 2", len(RISCV()))
	}
	for _, w := range RISCV() {
		if w.ISA != "rv32" {
			t.Errorf("%s: ISA = %q, want rv32", w.Name, w.ISA)
		}
	}
	for _, w := range RISCV() {
		if got, ok := ByName(w.Name); !ok || got != w {
			t.Errorf("ByName(%s) = %v, %v; want the RV32 workload", w.Name, got, ok)
		}
	}
}

func TestRISCVTextIsValidCode(t *testing.T) {
	arch := isa.MustLookup("rv32")
	for _, w := range RISCV() {
		p, err := w.Program()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if p.ISA != "rv32" {
			t.Fatalf("%s: program ISA = %q", w.Name, p.ISA)
		}
		for off := 0; off+4 <= len(p.Text); off += 4 {
			raw := isa.Word(uint32(p.Text[off]) | uint32(p.Text[off+1])<<8 |
				uint32(p.Text[off+2])<<16 | uint32(p.Text[off+3])<<24)
			if info := arch.Decode(raw, uint32(off)); !info.Valid {
				t.Errorf("%s: invalid instruction %#08x at %#x", w.Name, uint32(raw), off)
				break
			}
		}
	}
}

// TestRISCVTextCompressesUnderRVC pins the property the rvc experiment
// relies on: a meaningful fraction of real RV32 text has a 16-bit form.
func TestRISCVTextCompressesUnderRVC(t *testing.T) {
	for _, w := range RISCV() {
		text, err := w.Text()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		rvc := riscv.CompressedSize(text)
		if rvc >= len(text) {
			t.Errorf("%s: RVC size %d not below original %d", w.Name, rvc, len(text))
		}
		if rvc < len(text)/2 {
			t.Errorf("%s: RVC size %d below the 2-byte floor of %d bytes",
				w.Name, rvc, len(text))
		}
	}
}

func TestRISCVDeterministicBuilds(t *testing.T) {
	a := &Workload{Name: "rv-matrix-copy", ISA: "rv32", buildSrc: func() string {
		return rvWrapMain(rvMatrixText, rvMatrixData,
			rvSynthFunctions("rvm", 40, 100, 0x2A, 4))
	}}
	w, _ := ByName("rv-matrix")
	if a.Source() != w.Source() {
		t.Error("synthesized RV32 source not deterministic")
	}
}
