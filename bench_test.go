package ccrp

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation, regenerating the corresponding rows (see
// DESIGN.md's experiment index). Run everything with
//
//	go test -bench=. -benchmem
//
// The per-table benchmarks report rows/op so throughput is comparable
// across tables. Paper-vs-measured values live in EXPERIMENTS.md.

import (
	"io"
	"testing"

	"ccrp/internal/experiments"
	"ccrp/internal/memory"
)

// benchTable runs the Table 1-8 sweep for one program.
func benchTable(b *testing.B, program string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows := 0
		models := []memory.Model{memory.EPROM{}, memory.BurstEPROM{}}
		if program == "matrix25a" {
			models = append(models, memory.SCDRAM{})
		}
		for _, mem := range models {
			for _, cs := range experiments.CacheSizes {
				pt, err := experiments.Point(program, cs, 16, mem, 1.0)
				if err != nil {
					b.Fatal(err)
				}
				if pt.RelPerf <= 0 {
					b.Fatal("bad point")
				}
				rows++
			}
		}
		b.ReportMetric(float64(rows), "rows")
	}
}

func BenchmarkFigure5Compression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rows)), "rows")
	}
}

func BenchmarkFigure1Alignment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure1Alignment()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rows)), "rows")
	}
}

func BenchmarkFigure2LineAddresses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, comp, err := experiments.Figure2Addresses("eightq", 14)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(comp)), "rows")
	}
}

func BenchmarkTable1NASA7(b *testing.B)     { benchTable(b, "nasa7") }
func BenchmarkTable2Matrix25A(b *testing.B) { benchTable(b, "matrix25a") }
func BenchmarkTable3Fpppp(b *testing.B)     { benchTable(b, "fpppp") }
func BenchmarkTable4Espresso(b *testing.B)  { benchTable(b, "espresso") }
func BenchmarkTable5NASA1(b *testing.B)     { benchTable(b, "nasa1") }
func BenchmarkTable6Eightq(b *testing.B)    { benchTable(b, "eightq") }
func BenchmarkTable7Tomcatv(b *testing.B)   { benchTable(b, "tomcatv") }
func BenchmarkTable8Lloop01(b *testing.B)   { benchTable(b, "lloop01") }

func BenchmarkTable9CLBSweepNASA7(b *testing.B) {
	benchCLB(b, "nasa7")
}

func BenchmarkTable10CLBSweepEspresso(b *testing.B) {
	benchCLB(b, "espresso")
}

func benchCLB(b *testing.B, program string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows := 0
		for _, mem := range []memory.Model{memory.EPROM{}, memory.BurstEPROM{}} {
			for _, cs := range experiments.CacheSizes {
				for _, clb := range experiments.CLBSizes {
					if _, err := experiments.Point(program, cs, clb, mem, 1.0); err != nil {
						b.Fatal(err)
					}
					rows++
				}
			}
		}
		b.ReportMetric(float64(rows), "rows")
	}
}

func BenchmarkFigure9Scatter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(pts)), "points")
	}
}

func BenchmarkTables11to13DataCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Tables11to13()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res)), "tables")
	}
}

func BenchmarkAblationLAT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LATAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMultiCode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MultiCodeAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationOverlap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.OverlapAblation("espresso"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationISA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ISAAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

// End-to-end pipeline throughput: assemble, simulate, compress, compare.
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

func BenchmarkExtensionCodePack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CodePackStudy()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rows)), "rows")
	}
}

func BenchmarkExtensionPaging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PagingStudy()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rows)), "rows")
	}
}

func BenchmarkExtensionDecodeRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DecodeRateAblation("espresso"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionBlockSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BlockSizeAblation(); err != nil {
			b.Fatal(err)
		}
	}
}
