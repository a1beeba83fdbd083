package ccrp

import (
	"bytes"
	"strings"
	"testing"

	"ccrp/internal/core"
)

const testProgram = `
	.data
greeting:
	.asciiz "hello, CCRP\n"
	.text
__start:
	la $a0, greeting
	li $v0, 4
	syscall
	li $t0, 0
	li $t1, 10
sum:
	addu $t0, $t0, $t1
	addiu $t1, $t1, -1
	bgtz $t1, sum
	nop
	move $a0, $t0
	li $v0, 1
	syscall
	li $v0, 10
	syscall
`

func TestPublicAPIEndToEnd(t *testing.T) {
	var out bytes.Buffer
	res, err := RunProgram("api-test", testProgram, &out)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != "hello, CCRP\n55" {
		t.Errorf("output = %q", out.String())
	}
	if res.Trace == nil || res.Instructions == 0 {
		t.Fatal("no trace collected")
	}

	prog, err := Assemble("api-test", testProgram)
	if err != nil {
		t.Fatal(err)
	}
	code, err := PreselectedCode()
	if err != nil {
		t.Fatal(err)
	}
	rom, err := BuildROM(prog.Text, ROMOptions{Codes: []*Code{code}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rom.Verify(); err != nil {
		t.Fatal(err)
	}
	if rom.Ratio() >= 1 {
		t.Errorf("program did not compress: %.3f", rom.Ratio())
	}

	for _, mem := range MemoryModels() {
		cmp, err := Compare(res.Trace, rom, SystemConfig{CacheBytes: 256, Mem: mem})
		if err != nil {
			t.Fatal(err)
		}
		if cmp.TrafficRatio() >= 1 {
			t.Errorf("%s: traffic not reduced", mem.Name())
		}
	}
}

func TestPublicCodeBuilders(t *testing.T) {
	h := HistogramOf([]byte("the quick brown fox"), []byte("jumps over"))
	bounded, err := BuildBoundedCode(h, HuffmanBound)
	if err != nil {
		t.Fatal(err)
	}
	if bounded.MaxLen() > HuffmanBound {
		t.Errorf("bound violated: %d", bounded.MaxLen())
	}
	trad, err := BuildTraditionalCode(h)
	if err != nil {
		t.Fatal(err)
	}
	if trad.MaxLen() == 0 {
		t.Error("empty traditional code")
	}
}

func TestPublicWorkloads(t *testing.T) {
	if len(Workloads()) != 14 {
		t.Errorf("workloads = %d", len(Workloads()))
	}
	if len(Figure5Workloads()) != 10 {
		t.Errorf("figure 5 workloads = %d", len(Figure5Workloads()))
	}
	w, ok := WorkloadByName("espresso")
	if !ok {
		t.Fatal("espresso missing")
	}
	tr, err := w.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Instructions() == 0 {
		t.Error("empty espresso trace")
	}
	if EPROM().Name() != "EPROM" || BurstEPROM().Name() != "Burst EPROM" || SCDRAM().Name() != "DRAM" {
		t.Error("memory model constructors wrong")
	}
	if LineSize != 32 {
		t.Errorf("LineSize = %d", LineSize)
	}
}

func TestPublicExperimentEntryPoints(t *testing.T) {
	rows, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Errorf("figure 5 rows = %d", len(rows))
	}
	pts, err := Tables11to13()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Errorf("tables 11-13 programs = %d", len(pts))
	}
}

func TestRenderAllSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full render is expensive")
	}
	var b strings.Builder
	if err := RenderAll(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 5", "Table 1", "Table 8", "Table 13", "Figure 9", "Ablation",
		`CCRP vs. RISC-V "C" Extension`} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("RenderAll output missing %q", want)
		}
	}
}

// The paper's transparency claim, end to end: compress a program into a
// ROM image, serialize it, reload it, decompress the text through the
// (software twin of the) refill datapath, and execute the reconstructed
// program — output must be identical to the original run. espresso, the
// largest corpus program, gives the multi-symbol decode kernel a real
// corpus CROM end to end.
func TestROMReconstructedProgramExecutesIdentically(t *testing.T) {
	code, err := PreselectedCode()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"eightq", "xlisp", "fpppp", "espresso"} {
		w, ok := WorkloadByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		prog, err := w.Program()
		if err != nil {
			t.Fatal(err)
		}
		_, wantOut, err := w.Run()
		if err != nil {
			t.Fatal(err)
		}
		rom, err := BuildROM(prog.Text, ROMOptions{Codes: []*Code{code}})
		if err != nil {
			t.Fatal(err)
		}
		var file bytes.Buffer
		if err := rom.WriteFile(&file); err != nil {
			t.Fatal(err)
		}
		reloaded, err := core.ReadROMFile(&file)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt := &Program{
			Name:    name + "-from-rom",
			Text:    reloaded.Text()[:len(prog.Text)],
			Data:    prog.Data,
			Entry:   prog.Entry,
			Symbols: map[string]uint32{},
		}
		var out bytes.Buffer
		m := NewMachine(rebuilt, SimConfig{Stdout: &out, MaxInstr: 8_000_000})
		if _, err := m.Run(); err != nil {
			t.Fatalf("%s from ROM: %v", name, err)
		}
		if out.String() != wantOut {
			t.Errorf("%s: ROM-reconstructed output %q != original %q", name, out.String(), wantOut)
		}
	}
}

func TestCodecFacade(t *testing.T) {
	code, err := PreselectedCode()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := WorkloadByName("eightq")
	text, err := w.Text()
	if err != nil {
		t.Fatal(err)
	}
	hc := NewHuffmanCodec(code)
	rom, err := BuildROM(text, ROMOptions{Codec: hc})
	if err != nil {
		t.Fatal(err)
	}
	if err := rom.Verify(); err != nil {
		t.Fatal(err)
	}
	// The codec wrapper must produce the same block sizes as the direct
	// single-code path.
	direct, err := BuildROM(text, ROMOptions{Codes: []*Code{code}})
	if err != nil {
		t.Fatal(err)
	}
	if rom.BlocksSize() != direct.BlocksSize() {
		t.Errorf("codec wrapper blocks %d != direct %d", rom.BlocksSize(), direct.BlocksSize())
	}

	cp, err := TrainCodePack(text)
	if err != nil {
		t.Fatal(err)
	}
	cpROM, err := BuildROM(text, ROMOptions{Codec: cp})
	if err != nil {
		t.Fatal(err)
	}
	if err := cpROM.Verify(); err != nil {
		t.Fatal(err)
	}
	if cpROM.Ratio() >= rom.Ratio() {
		t.Errorf("self-trained codepack %.3f not better than corpus huffman %.3f",
			cpROM.Ratio(), rom.Ratio())
	}
}

func TestPagingFacade(t *testing.T) {
	code, err := PreselectedCode()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := WorkloadByName("eightq")
	tr, err := w.Trace()
	if err != nil {
		t.Fatal(err)
	}
	text, err := w.Text()
	if err != nil {
		t.Fatal(err)
	}
	store, err := BuildPageStore(text, code, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if store.Ratio() >= 1 {
		t.Errorf("page store ratio %.3f", store.Ratio())
	}
	res, err := SimulatePaging(tr, store, 2, FlashDevice())
	if err != nil {
		t.Fatal(err)
	}
	if res.Compressed.Faults == 0 || res.CycleRatio() >= 1 {
		t.Errorf("paging facade: faults=%d ratio=%.3f", res.Compressed.Faults, res.CycleRatio())
	}
	if DiskDevice().Name != "disk" {
		t.Error("device constructors wrong")
	}
}
