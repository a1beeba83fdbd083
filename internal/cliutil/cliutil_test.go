package cliutil

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ccrp/internal/asm"
	"ccrp/internal/isa"
	"ccrp/internal/trace"
)

const tinySource = `
	.text
	addiu $t0, $zero, 5
	jr    $ra
	nop
`

// TestLoadProgramAssembly: a source assembles for the ISA it is given,
// and for the default one without.
func TestLoadProgramAssembly(t *testing.T) {
	for _, c := range []struct{ isa, want, src string }{
		{"", isa.DefaultName, tinySource},
		{"rv32", "rv32", ".text\n\taddi t0, zero, 5\n\tecall\n\tnop\n"},
	} {
		path := filepath.Join(t.TempDir(), "tiny.s")
		if err := os.WriteFile(path, []byte(c.src), 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := LoadProgram(path, c.isa)
		if err != nil {
			t.Fatalf("isa %q: %v", c.isa, err)
		}
		if p.TextWords() != 3 || p.ISA != c.want {
			t.Errorf("isa %q: assembled %d words for %q, want 3 for %q", c.isa, p.TextWords(), p.ISA, c.want)
		}
	}
}

func TestLoadProgramBadAssembly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.s")
	if err := os.WriteFile(path, []byte(".text\n\tfrobnicate $t0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadProgram(path, ""); err == nil {
		t.Error("bad assembly must error")
	}
}

func TestLoadProgramImageRoundTrip(t *testing.T) {
	src, err := asm.Assemble("tiny", tinySource)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.img")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.WriteImage(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := LoadProgram(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Text, src.Text) || p.Entry != src.Entry {
		t.Error("image round trip lost program content")
	}
	if p.Name != path {
		t.Errorf("image named %q, want its path %q", p.Name, path)
	}
}

func TestLoadProgramMissing(t *testing.T) {
	if _, err := LoadProgram(filepath.Join(t.TempDir(), "nope.s"), ""); err == nil {
		t.Error("missing file must error")
	}
}

func TestLoadTrace(t *testing.T) {
	var rec trace.Recorder
	rec.Add(0x1000, false, false)
	rec.Add(0x1004, true, false)
	tr := rec.Trace(0)
	path := filepath.Join(t.TempDir(), "run.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Instructions() != 2 || got.DataAccesses() != 1 {
		t.Errorf("trace = %d insns / %d accesses, want 2/1", got.Instructions(), got.DataAccesses())
	}
	if _, err := LoadTrace(filepath.Join(t.TempDir(), "nope.trace")); err == nil {
		t.Error("missing trace must error")
	}
}

func TestResolveWorkload(t *testing.T) {
	w, err := ResolveWorkload("xlisp")
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "xlisp" {
		t.Errorf("resolved %q", w.Name)
	}
	if _, err := ResolveWorkload("doom"); err == nil ||
		!strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("unknown workload err = %v", err)
	}
}

func TestMemoryModel(t *testing.T) {
	m, err := MemoryModel("EPROM")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "EPROM" {
		t.Errorf("resolved %q", m.Name())
	}
	if _, err := MemoryModel("core-rope"); err == nil ||
		!strings.Contains(err.Error(), "unknown memory model") {
		t.Errorf("unknown model err = %v", err)
	}
}

func TestCodes(t *testing.T) {
	base, err := Codes(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 1 {
		t.Fatalf("Codes(nil) = %d codes, want the preselected code only", len(base))
	}
	src, err := asm.Assemble("tiny", tinySource)
	if err != nil {
		t.Fatal(err)
	}
	both, err := Codes(src.Text)
	if err != nil {
		t.Fatal(err)
	}
	if len(both) != 2 {
		t.Fatalf("Codes(text) = %d codes, want preselected + own", len(both))
	}
	if both[0] != base[0] {
		t.Error("preselected code not shared through the artifact cache")
	}
}

// TestObsFlagsWiring: the block is -metrics, -cpuprofile and
// -memprofile, wired to its fields, and nothing else. -spans is not in
// it: only ccrp-bench opens spans, and it registers the flag itself.
func TestObsFlagsWiring(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := RegisterObsFlags(fs)
	if err := fs.Parse([]string{"-metrics", "json"}); err != nil {
		t.Fatal(err)
	}
	if *f.Metrics != "json" || *f.CPUProfile != "" || *f.MemProfile != "" {
		t.Errorf("flag block wired wrong: %+v", f)
	}
	var names []string
	fs.VisitAll(func(fl *flag.Flag) { names = append(names, fl.Name) })
	if want := []string{"cpuprofile", "memprofile", "metrics"}; !slices.Equal(names, want) {
		t.Errorf("registered %v, want %v", names, want)
	}
}

func TestObsBeginRejectsBadFormat(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := RegisterObsFlags(fs)
	if err := fs.Parse([]string{"-metrics", "xml"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Begin(); err == nil ||
		!strings.Contains(err.Error(), "unknown -metrics format") {
		t.Errorf("Begin() err = %v, want format error", err)
	}
}

// TestObsBeginFinish: -metrics allocates the registry, and Finish
// exports it to the writer it is given, in the selected format.
func TestObsBeginFinish(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := RegisterObsFlags(fs)
	if err := fs.Parse([]string{"-metrics", "prom"}); err != nil {
		t.Fatal(err)
	}
	o, err := f.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if o.Registry == nil {
		t.Fatal("no registry despite -metrics")
	}
	o.Registry.Counter("runs_total", "runs").Inc()
	var out bytes.Buffer
	if err := o.Finish(&out); err != nil {
		t.Fatal(err)
	}
	if want := "# HELP runs_total runs\n# TYPE runs_total counter\nruns_total 1\n"; out.String() != want {
		t.Errorf("Finish wrote %q, want %q", out.String(), want)
	}
}
