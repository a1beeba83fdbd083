// Command ccsim is the trace-driven system simulator of the paper's §4.1:
// it executes a program functionally to obtain its instruction trace and
// pipeline stalls, then runs the trace through both the standard R2000
// system model and the CCRP model, reporting relative performance, miss
// rate, and memory traffic.
//
// Usage:
//
//	ccsim [-cache 1024] [-clb 16] [-mem "Burst EPROM"] [-dmiss 1.0]
//	      [-json] [-metrics table|json|prom] [-events ev.jsonl] [-sample N]
//	      [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	      (-workload name | prog.img | prog.s)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"ccrp/internal/cliutil"
	"ccrp/internal/core"
	"ccrp/internal/sim"
	"ccrp/internal/trace"
)

// comparisonJSON is the -json output shape: config echo, both systems'
// stats, and the paper's three headline ratios.
type comparisonJSON struct {
	Program        string     `json:"program"`
	Memory         string     `json:"memory"`
	CacheBytes     int        `json:"cache_bytes"`
	CLBEntries     int        `json:"clb_entries"`
	DCacheMissRate float64    `json:"dcache_miss_rate"`
	Instructions   int        `json:"instructions"`
	Stalls         uint64     `json:"stalls"`
	ROMOriginal    int        `json:"rom_original_bytes"`
	ROMCompressed  int        `json:"rom_compressed_bytes"`
	ROMRatio       float64    `json:"rom_ratio"`
	Standard       core.Stats `json:"standard"`
	CCRP           core.Stats `json:"ccrp"`
	RelPerf        float64    `json:"relative_performance"`
	MissRate       float64    `json:"miss_rate"`
	TrafficRatio   float64    `json:"traffic_ratio"`
}

func main() {
	cacheBytes := flag.Int("cache", 1024, "instruction cache size in bytes")
	clbEntries := flag.Int("clb", 16, "CLB entries")
	memName := flag.String("mem", "Burst EPROM", `memory model: "EPROM", "Burst EPROM", or "DRAM"`)
	dmiss := flag.Float64("dmiss", 1.0, "data cache miss rate (1.0 = no data cache)")
	quiet := flag.Bool("q", false, "suppress the program's console output")
	wl := flag.String("workload", "", "simulate a corpus workload")
	saveTrace := flag.String("savetrace", "", "write the instruction trace to this file")
	loadTrace := flag.String("trace", "", "drive the comparison from a saved trace (with prog.img for the text)")
	asJSON := flag.Bool("json", false, "emit the comparison as a single JSON object on stdout")
	obsFlags := cliutil.RegisterObsFlags(flag.CommandLine)
	version := cliutil.RegisterVersionFlag(flag.CommandLine)
	flag.Parse()
	cliutil.HandleVersionFlag("ccsim", version)

	mem, err := cliutil.MemoryModel(*memName)
	if err != nil {
		fatal(err)
	}
	obs, err := obsFlags.Begin()
	if err != nil {
		fatal(err)
	}

	var tr *trace.Trace
	var text []byte
	var name string
	switch {
	case *loadTrace != "":
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("-trace needs the program image for the text section"))
		}
		loaded, err := cliutil.LoadTrace(*loadTrace)
		if err != nil {
			fatal(err)
		}
		prog, err := cliutil.LoadProgram(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		report(*asJSON, "loaded trace: %d instructions, %d stalls\n", loaded.Instructions(), loaded.Stalls)
		tr, text, name = loaded, prog.Text, *loadTrace
	case *wl != "":
		w, err := cliutil.ResolveWorkload(*wl)
		if err != nil {
			fatal(err)
		}
		t, err := w.Trace()
		if err != nil {
			fatal(err)
		}
		txt, err := w.Text()
		if err != nil {
			fatal(err)
		}
		res, out, _ := w.Run()
		if !*quiet && !*asJSON {
			fmt.Print(out)
		}
		report(*asJSON, "executed %d instructions, %d stalls\n", res.Instructions, res.Stalls)
		tr, text, name = t, txt, *wl
	case flag.NArg() == 1:
		prog, err := cliutil.LoadProgram(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		stdout := os.Stdout
		if *quiet || *asJSON {
			stdout = nil
		}
		m := sim.New(prog, sim.Config{Stdout: stdout, CollectTrace: true, Metrics: obs.Registry})
		res, err := m.Run()
		if err != nil {
			fatal(err)
		}
		report(*asJSON, "executed %d instructions, %d stalls\n", res.Instructions, res.Stalls)
		tr, text, name = res.Trace, prog.Text, flag.Arg(0)
	default:
		fmt.Fprintln(os.Stderr, "usage: ccsim [flags] (-workload name | prog.img | prog.s)")
		os.Exit(2)
	}

	codes, err := cliutil.Codes(nil)
	if err != nil {
		fatal(err)
	}
	cfg := core.Config{
		CacheBytes: *cacheBytes,
		CLBEntries: *clbEntries,
		Mem:        mem,
		Codes:      codes,
		Metrics:    obs.Registry,
		Events:     obs.Sink,
	}
	if *dmiss < 1.0 {
		cfg.DataCache = true
		cfg.DCacheMissRate = *dmiss
	}
	if *saveTrace != "" {
		f, err := os.Create(*saveTrace)
		if err != nil {
			fatal(err)
		}
		if _, err := tr.WriteTo(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		report(*asJSON, "wrote trace to %s\n", *saveTrace)
	}
	cmp, err := core.Compare(tr, text, cfg)
	if err != nil {
		fatal(err)
	}

	if *asJSON {
		out := comparisonJSON{
			Program:        name,
			Memory:         mem.Name(),
			CacheBytes:     *cacheBytes,
			CLBEntries:     *clbEntries,
			DCacheMissRate: *dmiss,
			Instructions:   tr.Instructions(),
			Stalls:         tr.Stalls,
			ROMOriginal:    cmp.ROM.OriginalSize,
			ROMCompressed:  cmp.ROM.CompressedSize(),
			ROMRatio:       cmp.ROM.Ratio(),
			Standard:       cmp.Standard,
			CCRP:           cmp.CCRP,
			RelPerf:        cmp.RelativePerformance(),
			MissRate:       cmp.MissRate(),
			TrafficRatio:   cmp.TrafficRatio(),
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("\n%s on %s, %dB cache, %d-entry CLB:\n", name, mem.Name(), *cacheBytes, *clbEntries)
		fmt.Printf("  compressed ROM:        %d -> %d bytes (%.1f%%)\n",
			cmp.ROM.OriginalSize, cmp.ROM.CompressedSize(), 100*cmp.ROM.Ratio())
		fmt.Printf("  cache miss rate:       %.2f%%\n", 100*cmp.MissRate())
		fmt.Printf("  standard cycles:       %d\n", cmp.Standard.Cycles)
		fmt.Printf("  CCRP cycles:           %d (CLB misses: %d)\n", cmp.CCRP.Cycles, cmp.CCRP.CLBMisses)
		fmt.Printf("  relative performance:  %.3f (CCRP/standard; <1 means CCRP faster)\n", cmp.RelativePerformance())
		fmt.Printf("  memory traffic:        %.1f%%\n", 100*cmp.TrafficRatio())
	}
	if err := obs.Finish(os.Stdout); err != nil {
		fatal(err)
	}
}

// report prints progress lines, rerouting them to stderr in -json mode so
// stdout stays a single parseable object.
func report(asJSON bool, format string, args ...any) {
	w := os.Stdout
	if asJSON {
		w = os.Stderr
	}
	fmt.Fprintf(w, format, args...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccsim:", err)
	os.Exit(1)
}
