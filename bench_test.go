package ccrp

import (
	"io"
	"testing"
)

// BenchmarkEndToEndPipeline times the whole pipeline on one small
// program (assemble, simulate, compress, compare) with nothing cached
// between iterations. The paper's tables and figures are timed by
// ccrpbench (see its README), not here.
func BenchmarkEndToEndPipeline(b *testing.B) {
	code, err := PreselectedCode()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := RunProgram("bench", testProgram, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := Assemble("bench", testProgram)
		if err != nil {
			b.Fatal(err)
		}
		rom, err := BuildROM(prog.Text, ROMOptions{Codes: []*Code{code}})
		if err != nil {
			b.Fatal(err)
		}
		cmp, err := Compare(res.Trace, rom, SystemConfig{CacheBytes: 256, Mem: EPROM()})
		if err != nil {
			b.Fatal(err)
		}
		if cmp.RelativePerformance() <= 0 {
			b.Fatal("bad comparison")
		}
	}
}
