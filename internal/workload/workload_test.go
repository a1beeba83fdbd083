package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"slices"
	"strings"
	"testing"

	"ccrp/internal/asm"
	"ccrp/internal/isa"
	_ "ccrp/internal/mips" // register the default backend
	"ccrp/internal/sim"
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
	if len(Names()) != len(All())+len(RISCV()) {
		t.Error("Names does not list both corpora")
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

// BenchmarkAssembleCorpus assembles all 17 composed corpus sources per
// op; it measures the assembler alone.
func BenchmarkAssembleCorpus(b *testing.B) {
	corpus := slices.Concat(All(), RISCV())
	var bytes int64
	for _, w := range corpus {
		bytes += int64(len(w.Source()))
	}
	b.SetBytes(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range corpus {
			if _, err := asm.AssembleFor(w.ISA, w.Name, w.Source()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// corpusRunHash hashes everything a corpus run produces: its trace runs,
// its instruction, stall, load and store counts, and its console output.
func corpusRunHash(res *sim.Result, out string) string {
	var b []byte
	for _, e := range res.Trace.Events {
		b = binary.LittleEndian.AppendUint32(b, e.PC)
		b = append(b, e.N, e.Loads, e.Stores)
	}
	for _, n := range []uint64{res.Instructions, res.Stalls, res.Loads, res.Stores, res.Trace.Stalls} {
		b = binary.LittleEndian.AppendUint64(b, n)
	}
	b = append(b, out...)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestCorpusRunsPinned pins every run of all 17 corpus programs, both
// ISAs. The hashes were written by the executors that decoded each word
// at every fetch, before the text was predecoded, so a change to either
// executor that moves one fetch, stall, data access or output byte fails
// here. It reads the cached runs, so it simulates nothing of its own, and
// checks that each cached trace carries no growth slack.
func TestCorpusRunsPinned(t *testing.T) {
	want := map[string]string{
		"eightq":      "0efeaf6f4a6cc5e714a00848270b49f6c1ffede99d59f005d05dab1a03e14db9",
		"lloop01":     "7b4ef0c4c18096fcad703a88d53dbd932789fbd2296f3768a62d3091fa41b9a5",
		"matrix25a":   "55092c94076890663017b87528675ed9064a14eea433f2ac0e44301bc8d80f2c",
		"tex":         "dd7f8188d450f204c89b0e6fe00ea8a546cc8692b493add838173a0a5525dbda",
		"pswarp":      "3bf67e23ee8c78daad9f6055bd2c8cf5f6ec9541ce33f631c07bf0d77fb768e0",
		"yacc":        "9b9e51ee4359ab6db82bb131b9b179ff610d39b57ee578ed11c1b0180090f76f",
		"who":         "f010b5a5ca86e1dc7bf62d61efc0312d5a0c19a1abd6afe539b84b14d6a32954",
		"xlisp":       "b6cb995ed32da79dc39541a8d7e2bf7586eb6e01bffdc30a051e74e8ad169e58",
		"espresso":    "481f09508aa165a978d9445a8f60c5175597d0431b0c76fd361caa8dc7967783",
		"spim":        "e5c0d487b3250ba0fb193a3fb7cc29677b3ffa8f733ec56b8c80662ed3c0c6f3",
		"nasa7":       "5046ba78ff5be66ef544e5a323446fa2bbef1ec70a2e55b1ed3038195c9c1b2f",
		"nasa1":       "d3449d58f9fd9926e03df4fe1560c1b4bca3424ef6fbe1c3f9da3c15bbdf0347",
		"tomcatv":     "8b8169882fdc6d296efd74d865a966b1d51051bc3158ae8b00c56e47db62cccc",
		"fpppp":       "9806f9d6cb8d5fb4133a3c404fccbd5d6ffb290fcf19d58efbd81d2cb4293f72",
		"rv-matrix":   "ce646a2474f3c2a4540dfd121550abe1639defbfc63ba41d88d8ac122a9feff0",
		"rv-sieve":    "3839903f770b85f93b0963c2c8df51287796d3e380f7c872d7d09f21406cf8aa",
		"rv-dispatch": "ebdc1e25477634c5b028eeb84acc80763635246b631a3b0ecee405df5ba64c37",
	}
	for _, w := range slices.Concat(All(), RISCV()) {
		res, out, err := w.Run()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if got := corpusRunHash(res, out); got != want[w.Name] {
			t.Errorf("%s: run hash %s, pinned %s", w.Name, got, want[w.Name])
		}
		if ev := res.Trace.Events; cap(ev) != len(ev) {
			t.Errorf("%s: cached trace of %d runs has capacity %d", w.Name, len(ev), cap(ev))
		}
	}
}

// imageHash hashes everything an assembled image holds: its text, data,
// entry, BSS size, and its symbols in SymbolsSorted order.
func imageHash(p *asm.Program) string {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p.Text)))
	b = append(b, p.Text...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p.Data)))
	b = append(b, p.Data...)
	b = binary.LittleEndian.AppendUint32(b, p.Entry)
	b = binary.LittleEndian.AppendUint32(b, p.BSSSize)
	for _, name := range p.SymbolsSorted() {
		b = append(b, name...)
		b = append(b, 0)
		b = binary.LittleEndian.AppendUint32(b, p.Symbols[name])
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestCorpusImagesPinned pins the composed source and the assembled image
// of all 17 corpus programs. The hashes were written by the synthesizers
// that formatted each line with fmt and by the assembler that kept one
// heap statement per line, so a change to either that moves one source
// byte, word, data byte or symbol fails here.
func TestCorpusImagesPinned(t *testing.T) {
	want := map[string]struct{ source, image string }{
		"eightq":      {"035b0c97ca75a13286a29f8e429c10531b0e5a847daa978c292c97e5fff8ac5f", "785388361de88dd2c227df701c4d9ca0eaa5e011ad0a0c56973e8fbc99ade76d"},
		"lloop01":     {"3572c13ee049fac897ecab1c9caa9b04c34ff69fee4d30f339cebd7af9349bcd", "d86278541021d9bb895741d83458c5654612d07aaf695edaeebafae8a73e0d6f"},
		"matrix25a":   {"d0d8722c48cc6b3388f1aafb68b33975b8ba438e473b27654d7da2119afedec1", "15a4707c331f039ef847c60b8209061be2d0779bf2af860c0c46e9416e72cf4f"},
		"tex":         {"3049e6ab308b3fa9557dd2d4264501ad07f1606c1ef43465601ed91b6bc45750", "97e354d688c4f0768461880176c08113ddf62a1bf21025ae50be44e351966abf"},
		"pswarp":      {"b18812070d2876408adad08d442156fea09ac4e3fdc830ebeb2fbc0a03df34bd", "b127c58ae3844664030b367be6533e05b3c95c9a0005fe500af268d504c2fd40"},
		"yacc":        {"0e6ab2a75ec267e8188113abdfe7b28593e6a0cfa1ccc5dab6b80375d4302f26", "1ee281cb4c2b6199b851596bf9f466e453d2d43c9fe8d6fc8ea42402e9010094"},
		"who":         {"fcdc4164320c45d273fb04d84949d7967701f46fbfbbfc22c8e0bd364e3066af", "8ee23a12bb6741842e8928bb93f9045d6b57180d8e9e08779fa000c9be73062e"},
		"xlisp":       {"d6d8f6dfc1e4425ca69649301c58c2c54661e967308908e350bfe4effd14aa36", "d2af5a3f055946ef0fa579384201fac8cf5e95e88397bb68f5c8d7b3dda38190"},
		"espresso":    {"58f5334ae2b2913100d8ead5637125f0f9e43c81e8b621e193831a28c63b056d", "8a0df0c88314d213e385b17536c81e29714cbfd3d39eaae87cf215cf79efe9d9"},
		"spim":        {"588876e2bf39a8a78f57f4f7d01ee9980b6aec3017e3c68b481d1005b845ef95", "1dfd94451d91572b71347487bd839c388048eec6030f05da6fb978e8fc8d5aef"},
		"nasa7":       {"27829454e49c3a811a24ae9323c0eeb09894669f8c6a8c74a1cbb1262c1fc482", "d35b0cfb1474d9ddba35fce989e26362c252a42710f3bc6b93aa851f18708be7"},
		"nasa1":       {"fea8bc79ff28b91dd7b273e32e686d83b361946268cf8c8c7d1ca05469353f4e", "d82af2a41da6ba6aaea872da05461ea2110758661dd626d93c2dd98d2fb4de89"},
		"tomcatv":     {"389b3c3b569dce3fb6491aff8062de1419fb5f49445aa46eea686b4936535a10", "750354276fccc3a1caba4c243d80a95becdb1e7998dc50a9cff774d229aeb64b"},
		"fpppp":       {"94f0f750b23898da64ff486f421d1c4585a482127fd11e807df4084433d8e87c", "2975e0bdfdd560f26af5dabb6eab79f427f7df7446490db55d4349de5f72413e"},
		"rv-matrix":   {"b7d8a3948e5446b976fe927957caa87dd242bc831cdef7e0dd5fe8a2454390cd", "f2f63193e7c376fe49fd271d62354e99a4bee5aa7aecc87c8d9e97e4da61be60"},
		"rv-sieve":    {"94ecd7c95f269919177d7348d78e4f5a67fcde421c95570bd81fc381e48fb307", "92b730d23bbee8ef61e9a32084e084653b7e58b1ec4a7b32b6cee9fc7a7ddc44"},
		"rv-dispatch": {"dd1214447f940562fd2cb889f8c1fb2d6776d3391d874ca44c8293bfd5137d1c", "dbc0f89068a4dbf42a2c628a3168a93f077ce3e2e3b077389fab2d067360c657"},
	}
	for _, w := range slices.Concat(All(), RISCV()) {
		p, err := w.Program()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		sum := sha256.Sum256([]byte(w.Source()))
		if got := hex.EncodeToString(sum[:]); got != want[w.Name].source {
			t.Errorf("%s: source hash %s, pinned %s", w.Name, got, want[w.Name].source)
		}
		if got := imageHash(p); got != want[w.Name].image {
			t.Errorf("%s: image hash %s, pinned %s", w.Name, got, want[w.Name].image)
		}
	}
}

// TestAssembleAllocs: the assembler allocates per program, not per line.
// Once the corpus assembled with about six allocations a line (4,940 for
// eightq, 267,644 for espresso).
func TestAssembleAllocs(t *testing.T) {
	for _, w := range slices.Concat(All(), RISCV()) {
		src := w.Source()
		allocs := testing.AllocsPerRun(2, func() {
			if _, err := asm.AssembleFor(w.ISA, w.Name, src); err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
		})
		if allocs >= 256 {
			t.Errorf("%s: %.0f allocations to assemble, want under 256", w.Name, allocs)
		}
	}
}

// TestTextWithoutRun: assembling and running are separate, so a program
// that never exits still yields its image and text, and only Run and
// Trace report the instruction limit.
func TestTextWithoutRun(t *testing.T) {
	w := &Workload{Name: "spin", buildSrc: func() string {
		return "\t.text\n__start:\n\tnop\n\tnop\n\tnop\n\tnop\n\tnop\n\tnop\n\tb __start\n\tnop\n"
	}}
	if _, err := w.Program(); err != nil {
		t.Fatalf("Program: %v", err)
	}
	if text, err := w.Text(); err != nil || len(text) != 32 {
		t.Fatalf("Text: %d bytes, %v; want 32 bytes", len(text), err)
	}
	if _, _, err := w.Run(); !errors.Is(err, sim.ErrMaxInstructions) {
		t.Errorf("Run: %v, want %v", err, sim.ErrMaxInstructions)
	}
	if _, err := w.Trace(); !errors.Is(err, sim.ErrMaxInstructions) {
		t.Errorf("Trace: %v, want %v", err, sim.ErrMaxInstructions)
	}
	if n, err := w.StaticBytes(); err != nil || n != 32 {
		t.Errorf("StaticBytes after a failed run: %d, %v", n, err)
	}
}
