package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"runtime/debug"
	"testing"

	"ccrp/internal/core"
	"ccrp/internal/experiments"
	"ccrp/internal/huffman"
	"ccrp/internal/memory"
	"ccrp/internal/metrics"
	"ccrp/internal/trace"
	"ccrp/internal/workload"
)

// observedProm returns the sha256 of the Prometheus exposition that
// Observe writes for tr replayed over rom under cfg.
func observedProm(t *testing.T, tr *trace.Trace, rom *core.ROM, cfg core.Config) string {
	t.Helper()
	p, err := core.Replay(tr, rom, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	if err := core.Observe(reg, tr, p, rom, cfg); err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	if err := reg.WriteFormat(&prom, "prom"); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(prom.Bytes())
	return hex.EncodeToString(sum[:])
}

// corpusROM returns the trace of corpus program prog and its text built
// under the preselected code, byte- or word-aligned.
func corpusROM(t *testing.T, prog string, wordAligned bool) (*trace.Trace, *core.ROM) {
	t.Helper()
	code, err := experiments.PreselectedCode()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workload.ByName(prog)
	tr, err := w.Trace()
	if err != nil {
		t.Fatal(err)
	}
	text, err := w.Text()
	if err != nil {
		t.Fatal(err)
	}
	rom, err := core.BuildROM(text, core.Options{Codes: []*huffman.Code{code}, WordAligned: wordAligned})
	if err != nil {
		t.Fatal(err)
	}
	return tr, rom
}

// TestInstrumentedOutputPinned pins every byte of the exposition that
// ccsim's -metrics prom writes for fpppp (the shortest MIPS trace) at
// ccsim's defaults. A profile that miscounts an access or a miss, or a
// series that moves, changes the hash.
func TestInstrumentedOutputPinned(t *testing.T) {
	const want = "d4b2f0f5556b10ec55221927f8914887a57e34c7cf7b12f0c8094850f11d2e2a"
	tr, rom := corpusROM(t, "fpppp", false)
	cfg := core.Config{CacheBytes: 1024, CLBEntries: 16, Mem: memory.BurstEPROM{}}
	if got := observedProm(t, tr, rom, cfg); got != want {
		t.Errorf("prom exposition sha256 = %s, want %s", got, want)
	}
}

// TestObservePinned pins Observe's exposition on four programs, each
// with a byte- and a word-aligned ROM, under four machines that between
// them reach raw refills, CLB evictions, 2- and 4-way set mapping, every
// memory, decode rates 1, 4 and 8, overlap and a data cache. The hashes
// were written by the per-fetch probe that Observe replaced, with the two
// series only the probe kept (fills per victim way and the ages of
// evicted CLB entries) taken out.
func TestObservePinned(t *testing.T) {
	configs := []core.Config{
		{CacheBytes: 256, CacheWays: 1, CLBEntries: 4, Mem: memory.EPROM{}},
		{CacheBytes: 1024, CacheWays: 2, CLBEntries: 8, Mem: memory.BurstEPROM{}, DecodeRate: 1},
		{CacheBytes: 2048, CacheWays: 4, CLBEntries: 16, Mem: memory.SCDRAM{}, DecodeRate: 8, OverlapCycles: 6},
		{CacheBytes: 512, CLBEntries: 16, Mem: memory.BurstEPROM{}, DecodeRate: 4, OverlapCycles: 40,
			DataCache: true, DCacheMissRate: 0.2},
	}
	for _, c := range []struct {
		prog        string
		wordAligned bool
		config      int // index into configs
		want        string
	}{
		{"fpppp", false, 0, "9942c549f61c60fe7d9ded23dd4f650499cc752fa6c08e12a905ad912fde4b6d"},
		{"fpppp", false, 1, "cd33d18d80fb218c912b71f83fcfd91664c4176a497ffb288f6f6c79c548f0b2"},
		{"fpppp", false, 2, "d5681c10aa3746f4f5ad3c46323a2995d75809eea000f0d0ab4e4b1cbc8d691a"},
		{"fpppp", false, 3, "7327266748b09d495cb0d1d99dd7ee6a99c6acd949160d2ef0b43b51208171d7"},
		{"fpppp", true, 0, "beb386cb31dc545ef25f0654be45be52589f0d16cf014108583c72425c58f8d2"},
		{"fpppp", true, 1, "54948a9530026b9b3e7725712e68c819672ed96f9716a88bdf08e7c4614984b6"},
		{"fpppp", true, 2, "4d0a97a24642622e154e030b5e6f0aad9b64f426884da4aae2923f868849704f"},
		{"fpppp", true, 3, "fbd16ba145602cb1283d5816e35e7d98d5909189e6e0e604ff5fa9683dcf55e3"},
		{"espresso", false, 0, "a7e284e1329848913f2d580226ec00ba02b05d2ac9164529134e151c712ef3fc"},
		{"espresso", false, 1, "19d92cb337a6556ee3ca97c9eb6a228d21eb4f69be6dbe245e71408555d1e52e"},
		{"espresso", false, 2, "bcc98fda41f55009edfa4d31a09cfcb15a950175b06c58ebd515a499dfb9628e"},
		{"espresso", false, 3, "823a1e5de3975821935a56991cfc4065fdebdc9538872a8bfdcc0024dae9b1b7"},
		{"espresso", true, 0, "2227491bf5aa0d3af035de47aaf4d0701e3a0e93d4a8098e38ea73458a7b5ed6"},
		{"espresso", true, 1, "4a27120c23cbb6d393adbc844a96bd8cba3ad35071ada5307eb6b0aec392466e"},
		{"espresso", true, 2, "01f2e25908da9ef2a688e76414742cbe670d64eaf338f21002d264d2d0d9cc54"},
		{"espresso", true, 3, "a7c0594fb46ee86645674ad63accc02569a21d44557a51135837cbe8bee5e909"},
		{"nasa7", false, 0, "2f7445d9242ad4130ad4b2d87091143f2e22b167ebdba049ddd8706677a8db07"},
		{"nasa7", false, 1, "2fed9434e1d402a9ef8a8299164c29e945620bc369057c2967764f8683fd2151"},
		{"nasa7", false, 2, "56461fbfb7b8215d548c3cdda0c87b2315290943cc2fb693e8e77b4b6b89dc87"},
		{"nasa7", false, 3, "57633ab3f6a70ad0aeef8c209cc94a4334333be75de471a9143cc235f9de2969"},
		{"nasa7", true, 0, "73cc89dbaee057900bfb771ee2cb501c82766438fd85d1753d91be842dde3a6d"},
		{"nasa7", true, 1, "6ab26bd41c74a61814ba9f67ae32bd659b52b342bde5fce46e243d7ca6def9d7"},
		{"nasa7", true, 2, "3250bdf777580272a8b35d8832ef66ed759558923b91ed81dd8f5ffe17a52f0f"},
		{"nasa7", true, 3, "2456f0b5f32a55d2d819a4b5422303123f1cd62e66eba844fe7d64d40f483638"},
		{"eightq", false, 0, "fad0d00bbb9b278789081d3c541ef20aaba7b0d722fd9d66a756a40e3dc420bf"},
		{"eightq", false, 1, "bdba29bb92f8269cf1541715b269916ff6cea6f28803375aed58b53562041063"},
		{"eightq", false, 2, "f6e02d9a05de40affa8608f28c0e9cb20057455ed33580fabf813815b7d20df3"},
		{"eightq", false, 3, "8bfd6af95770918e11bd5c28325c9ab20e5db7837bfe38b89c47667889cc7394"},
		{"eightq", true, 0, "589765d58b2a4424d16c8065627111b8969941f659893753b80a22453f5c2be2"},
		{"eightq", true, 1, "3b7341980ab837cae2790da6f16c71bdd25532b8770158def80321fe94cb3d1b"},
		{"eightq", true, 2, "9a5ad49572637f1438b7ea9bc75f19cc9ef0af826915d5749826f9ddec35de60"},
		{"eightq", true, 3, "969f06fee4b672eb20227575e14ada516e95ca09a3eea68d675ee9073b5e72d6"},
	} {
		tr, rom := corpusROM(t, c.prog, c.wordAligned)
		if got := observedProm(t, tr, rom, configs[c.config]); got != c.want {
			t.Errorf("%s word-aligned %v config %d: prom sha256 = %s, want %s",
				c.prog, c.wordAligned, c.config, got, c.want)
		}
	}
}

// TestLineCyclesAllocFree: pricing a refill allocates nothing on any line
// of a Huffman ROM or of a CodePack ROM, because every codec hands the
// bit lengths a line streams by back by value.
func TestLineCyclesAllocFree(t *testing.T) {
	presel, err := experiments.PreselectedCode()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := experiments.CodePackCoder()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workload.ByName("espresso")
	text, err := w.Text()
	if err != nil {
		t.Fatal(err)
	}
	e := core.RefillEngine{Mem: memory.BurstEPROM{}}
	for _, c := range []struct {
		name string
		opts core.Options
	}{
		{"Huffman", core.Options{Codes: []*huffman.Code{presel}}},
		{"CodePack", core.Options{Codec: cp}},
	} {
		rom, err := core.BuildROM(text, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if rom.RawLines() == len(rom.Lines) {
			t.Fatalf("%s ROM has no compressed line; test premise broken", c.name)
		}
		n := testing.AllocsPerRun(10, func() {
			for i := range rom.Lines {
				e.LineCycles(rom, i)
			}
		})
		if n != 0 {
			t.Errorf("LineCycles over the %d lines of a %s ROM allocates %v times, want 0", len(rom.Lines), c.name, n)
		}
	}
}

// TestImageAllocsPerImage: BuildROM sizes every line before it allocates
// the block region once and encodes each line into its slot, and
// ReadROMFile sizes its line headers from the header, so building or
// reading an image allocates as often for espresso as for eightq, which
// has a fraction of its lines: neither allocates per line.
func TestImageAllocsPerImage(t *testing.T) {
	presel, err := experiments.PreselectedCode()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := experiments.CodePackCoder()
	if err != nil {
		t.Fatal(err)
	}
	type allocs struct{ lines, huffman, codepack, read float64 }
	measure := func(prog string) allocs {
		w, _ := workload.ByName(prog)
		text, err := w.Text()
		if err != nil {
			t.Fatal(err)
		}
		opts := core.Options{Codes: []*huffman.Code{presel}}
		rom, err := core.BuildROM(text, opts)
		if err != nil {
			t.Fatal(err)
		}
		var file bytes.Buffer
		if err := rom.WriteFile(&file); err != nil {
			t.Fatal(err)
		}
		a := allocs{lines: float64(len(rom.Lines))}
		a.huffman = testing.AllocsPerRun(5, func() {
			if _, err := core.BuildROM(text, opts); err != nil {
				t.Fatal(err)
			}
		})
		a.codepack = testing.AllocsPerRun(5, func() {
			if _, err := core.BuildROM(text, core.Options{Codec: cp}); err != nil {
				t.Fatal(err)
			}
		})
		a.read = testing.AllocsPerRun(5, func() {
			if _, err := core.ReadROMFile(bytes.NewReader(file.Bytes())); err != nil {
				t.Fatal(err)
			}
		})
		return a
	}
	small, large := measure("eightq"), measure("espresso")
	if large.lines < 4*small.lines {
		t.Fatalf("espresso has %v lines, eightq %v; test premise broken", large.lines, small.lines)
	}
	if small.huffman != large.huffman || small.codepack != large.codepack || small.read != large.read {
		t.Errorf("allocations (Huffman build, CodePack build, read) = (%v, %v, %v) for eightq, (%v, %v, %v) for espresso, want equal",
			small.huffman, small.codepack, small.read, large.huffman, large.codepack, large.read)
	}
}

// TestReadROMFileLineBytes: reading a ROM file allocates, beyond the
// text, blocks and LAT the file holds, at most 16 bytes per line, since
// a line keeps only its code tag and its block is located through the
// LAT. The slope is taken between eightq and espresso under one code,
// so the code table and its decoder, the same for both, cancel out.
func TestReadROMFileLineBytes(t *testing.T) {
	presel, err := experiments.PreselectedCode()
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	type sample struct{ lines, extra float64 }
	measure := func(prog string) sample {
		w, _ := workload.ByName(prog)
		text, err := w.Text()
		if err != nil {
			t.Fatal(err)
		}
		rom, err := core.BuildROM(text, core.Options{Codes: []*huffman.Code{presel}})
		if err != nil {
			t.Fatal(err)
		}
		var file bytes.Buffer
		if err := rom.WriteFile(&file); err != nil {
			t.Fatal(err)
		}
		read := func() {
			if _, err := core.ReadROMFile(bytes.NewReader(file.Bytes())); err != nil {
				t.Fatal(err)
			}
		}
		read() // any one-time set-up is not the file's
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		read()
		runtime.ReadMemStats(&after)
		held := rom.OriginalSize + rom.BlocksSize() + rom.TableSize()
		return sample{float64(len(rom.Lines)), float64(after.TotalAlloc-before.TotalAlloc) - float64(held)}
	}
	small, large := measure("eightq"), measure("espresso")
	if large.lines < 4*small.lines {
		t.Fatalf("espresso has %v lines, eightq %v; test premise broken", large.lines, small.lines)
	}
	if slope := (large.extra - small.extra) / (large.lines - small.lines); slope > 16 {
		t.Errorf("ReadROMFile allocates %.1f bytes per line beyond the text, blocks and LAT, want at most 16 (eightq %.0f bytes over %v lines, espresso %.0f over %v)",
			slope, small.extra, small.lines, large.extra, large.lines)
	}
}
