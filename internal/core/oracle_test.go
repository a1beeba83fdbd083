package core_test

import (
	"testing"

	"ccrp/internal/core"
	"ccrp/internal/experiments"
	"ccrp/internal/huffman"
	"ccrp/internal/memory"
	"ccrp/internal/workload"
)

// TestCompareMatchesReference: Compare, now Replay then Price, equals the
// per-miss loop it replaced, field for field. The configurations are every
// (program, cache size) of the paper's sweep at a 16-entry CLB under all
// three memory models, and espresso on 4- and 8-entry CLBs with every
// pricing knob away from its default: overlap 7, decode rate 4 and a
// 10% D-cache miss rate.
func TestCompareMatchesReference(t *testing.T) {
	code, err := experiments.PreselectedCode()
	if err != nil {
		t.Fatal(err)
	}
	configs := func(prog string) []core.Config {
		var out []core.Config
		for _, cs := range experiments.CacheSizes {
			for _, mem := range memory.Models() {
				out = append(out, core.Config{CacheBytes: cs, CLBEntries: 16, Mem: mem})
				if prog != "espresso" {
					continue
				}
				for _, clb := range []int{4, 8} {
					out = append(out, core.Config{
						CacheBytes: cs, CLBEntries: clb, Mem: mem,
						OverlapCycles: 7, DecodeRate: 4, DataCache: true, DCacheMissRate: 0.1,
					})
				}
			}
		}
		return out
	}
	for _, prog := range experiments.PerfPrograms {
		t.Run(prog, func(t *testing.T) {
			t.Parallel()
			w, _ := workload.ByName(prog)
			tr, err := w.Trace()
			if err != nil {
				t.Fatal(err)
			}
			text, err := w.Text()
			if err != nil {
				t.Fatal(err)
			}
			rom, err := core.BuildROM(text, core.Options{Codes: []*huffman.Code{code}})
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range configs(prog) {
				want, err := core.ReferenceCompare(tr, rom, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := core.Compare(tr, rom, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got.Standard != want.Standard || got.CCRP != want.CCRP {
					t.Errorf("%s %dB CLB %d: Compare\n  std %+v\n  ccrp %+v\nreference\n  std %+v\n  ccrp %+v",
						cfg.Mem.Name(), cfg.CacheBytes, cfg.CLBEntries, got.Standard, got.CCRP, want.Standard, want.CCRP)
				}
			}
		})
	}
}
