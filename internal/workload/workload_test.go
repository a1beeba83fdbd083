package workload

import (
	"strings"
	"testing"

	"ccrp/internal/asm"
	"ccrp/internal/isa"
	_ "ccrp/internal/mips" // register the default backend
	"ccrp/internal/trace"
)

func TestAllWorkloadsRunToCompletion(t *testing.T) {
	for _, w := range All() {
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
			// The paper's traces run 10K to 1M dynamic instructions;
			// ours stay in the same regime (espresso somewhat above,
			// like the real espresso).
			if res.Instructions < 10_000 {
				t.Errorf("trace too short: %d instructions", res.Instructions)
			}
			if res.Instructions > maxWorkloadInstr {
				t.Errorf("trace too long: %d instructions", res.Instructions)
			}
			if res.Trace == nil || res.Trace.Instructions() != int(res.Instructions) {
				t.Error("trace missing or inconsistent")
			}
		})
	}
}

func TestStaticSizesTrackPaper(t *testing.T) {
	for _, w := range All() {
		if w.PaperBytes == 0 {
			continue
		}
		got, err := w.StaticBytes()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		lo, hi := w.PaperBytes*7/10, w.PaperBytes*13/10
		if got < lo || got > hi {
			t.Errorf("%s: static size %d outside 70%%-130%% of paper's %d",
				w.Name, got, w.PaperBytes)
		}
	}
}

func TestRegistry(t *testing.T) {
	if len(All()) != 14 {
		t.Errorf("registry has %d workloads", len(All()))
	}
	f5 := Figure5Set()
	if len(f5) != 10 {
		t.Fatalf("Figure 5 set has %d programs", len(f5))
	}
	for _, w := range f5 {
		if !w.InFigure5 {
			t.Errorf("%s in Figure5Set but not flagged", w.Name)
		}
	}
	if _, ok := ByName("eightq"); !ok {
		t.Error("ByName(eightq) failed")
	}
	if _, ok := ByName("doom"); ok {
		t.Error("ByName accepted unknown name")
	}
	if len(Names()) != len(All()) {
		t.Error("Names inconsistent")
	}
	seen := map[string]bool{}
	for _, n := range Names() {
		if seen[n] {
			t.Errorf("duplicate workload name %s", n)
		}
		seen[n] = true
	}
}

func TestDeterministicBuilds(t *testing.T) {
	// Two fresh instances must produce identical sources and text.
	a := &Workload{Name: "fpppp-copy", buildSrc: func() string {
		body := synthStraightLine("fp_body", 330, 0xFB)
		return wrapMain(fpppppLoop+body, "", pad("fpc", 60, 120, styleConst, 0xFC), "")
	}}
	w, _ := ByName("fpppp")
	if a.Source() != w.Source() {
		t.Error("synthesized source not deterministic")
	}
}

func TestTracesStayInText(t *testing.T) {
	for _, w := range All() {
		tr, err := w.Trace()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		text, _ := w.Text()
		limit := uint32(len(text))
		for _, e := range tr.Events {
			if last := e.PC + uint32(e.N-1)*trace.WordBytes; last >= limit {
				t.Errorf("%s: fetch at %#x outside text (%d bytes)", w.Name, last, limit)
				break
			}
		}
	}
}

func TestTextIsValidCode(t *testing.T) {
	// Every word of every text section must decode to a valid
	// instruction (the corpus is genuine R2000 code, which is what makes
	// its byte histogram meaningful for Figure 5).
	for _, w := range All() {
		p, err := w.Program()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		arch, err := isa.Lookup(p.ISA)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		words := 0
		for off := 0; off+4 <= len(p.Text); off += 4 {
			raw := isa.Word(uint32(p.Text[off]) | uint32(p.Text[off+1])<<8 |
				uint32(p.Text[off+2])<<16 | uint32(p.Text[off+3])<<24)
			if info := arch.Decode(raw, uint32(off)); !info.Valid && raw != 0 {
				t.Errorf("%s: invalid instruction %#08x at %#x", w.Name, uint32(raw), off)
				break
			}
			words++
		}
		if words == 0 {
			t.Errorf("%s: empty text", w.Name)
		}
	}
}

func TestFPFlagAccuracy(t *testing.T) {
	for _, w := range All() {
		src := w.Source()
		usesFP := strings.Contains(src, "add.d") || strings.Contains(src, "l.d") ||
			strings.Contains(src, "mul.d") || strings.Contains(src, "cvt")
		if w.FP && !usesFP {
			t.Errorf("%s flagged FP but no FP code found", w.Name)
		}
	}
}

func TestStackDiscipline(t *testing.T) {
	// After a full run the stack pointer must be back at the top: every
	// function's prologue and epilogue balance.
	for _, w := range All() {
		p, err := w.Program()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if p.Entry != 0 {
			t.Errorf("%s: entry %#x, want 0 (__start first)", w.Name, p.Entry)
		}
		if uint32(len(p.Text)) >= asm.DataBase {
			t.Errorf("%s: text overruns data base", w.Name)
		}
	}
}

func BenchmarkBuildCorpus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := &Workload{Name: "bench", buildSrc: func() string {
			return wrapMain(eightqText, eightqData, pad("eq8", 5, 100, styleInt, 0xE1), "")
		}}
		if _, err := w.Program(); err != nil {
			b.Fatal(err)
		}
	}
}
