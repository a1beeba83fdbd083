// Command ccsim is the trace-driven system simulator of the paper's §4.1:
// it executes a program functionally to obtain its instruction trace and
// pipeline stalls, compresses its text into a ROM under the preselected
// code, then runs the trace through both the standard R2000 system model
// and the CCRP model over that ROM, reporting relative performance, miss
// rate, and memory traffic.
//
// Usage:
//
//	ccsim [-cache 1024] [-clb 16] [-mem "Burst EPROM"] [-dmiss 1.0]
//	      [-json] [-metrics table|json|prom]
//	      [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	      (-workload name | prog.img | prog.s)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

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
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	var ue usageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.As(err, &ue):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "ccsim:", err)
		os.Exit(1)
	}
}

// usageError is a bad command line, already reported with the usage
// text; main exits 2 on it, as flag parsing does.
type usageError struct{ error }

// run parses args, simulates, and writes the comparison to stdout.
// Progress lines go to stdout too, or to stderr in -json mode, so that
// stdout is a single parseable object; command-line problems go to
// stderr.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("ccsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: ccsim [flags] (-workload name | prog.img | prog.s)")
		fs.PrintDefaults()
	}
	cacheBytes := fs.Int("cache", 1024, "instruction cache size in bytes")
	clbEntries := fs.Int("clb", 16, "CLB entries")
	memName := fs.String("mem", "Burst EPROM", `memory model: "EPROM", "Burst EPROM", or "DRAM"`)
	dmiss := fs.Float64("dmiss", 1.0, "data cache miss rate in [0, 1] (1.0 = no data cache)")
	quiet := fs.Bool("q", false, "suppress the program's console output")
	wl := fs.String("workload", "", "simulate a corpus workload")
	saveTrace := fs.String("savetrace", "", "write the instruction trace to this file")
	loadTrace := fs.String("trace", "", "drive the comparison from a saved trace (with prog.img for the text)")
	asJSON := fs.Bool("json", false, "emit the comparison as a single JSON object on stdout")
	obsFlags := cliutil.RegisterObsFlags(fs)
	version := cliutil.RegisterVersionFlag(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	if cliutil.PrintVersion(stdout, "ccsim", version) {
		return nil
	}
	usage := func(format string, a ...any) error {
		err := fmt.Errorf(format, a...)
		fmt.Fprintln(fs.Output(), err)
		fs.Usage()
		return usageError{err}
	}
	// The negated test also rejects NaN.
	if !(*dmiss >= 0 && *dmiss <= 1) {
		return usage("-dmiss %g outside [0, 1]", *dmiss)
	}
	switch {
	case *loadTrace != "" && *wl != "":
		return usage("-trace %s and -workload %s are two inputs; want one", *loadTrace, *wl)
	case *wl != "" && fs.NArg() > 0:
		return usage("-workload %s and %s are two inputs; want one", *wl, strings.Join(fs.Args(), " "))
	case *loadTrace != "" && fs.NArg() != 1:
		return usage("-trace %s needs one program image for the text section, got %d", *loadTrace, fs.NArg())
	case *loadTrace == "" && *wl == "" && fs.NArg() != 1:
		return usage("want -workload name or one program")
	}
	progress := stdout
	if *asJSON {
		progress = stderr
	}

	mem, err := cliutil.MemoryModel(*memName)
	if err != nil {
		return err
	}
	obs, err := obsFlags.Begin()
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			obs.Finish(io.Discard) // stop the profiles; the run's error wins
			return
		}
		err = obs.Finish(stdout)
	}()

	var tr *trace.Trace
	var text []byte
	var name string
	switch {
	case *loadTrace != "":
		loaded, err := cliutil.LoadTrace(*loadTrace)
		if err != nil {
			return err
		}
		prog, err := cliutil.LoadProgram(fs.Arg(0), "")
		if err != nil {
			return err
		}
		fmt.Fprintf(progress, "loaded trace: %d instructions, %d stalls\n", loaded.Instructions(), loaded.Stalls)
		tr, text, name = loaded, prog.Text, *loadTrace
	case *wl != "":
		w, err := cliutil.ResolveWorkload(*wl)
		if err != nil {
			return err
		}
		res, out, err := w.Run()
		if err != nil {
			return err
		}
		if text, err = w.Text(); err != nil {
			return err
		}
		if !*quiet && !*asJSON {
			fmt.Fprint(stdout, out)
		}
		fmt.Fprintf(progress, "executed %d instructions, %d stalls\n", res.Instructions, res.Stalls)
		tr, name = res.Trace, *wl
	default:
		prog, err := cliutil.LoadProgram(fs.Arg(0), "")
		if err != nil {
			return err
		}
		console := stdout
		if *quiet || *asJSON {
			console = nil
		}
		m := sim.New(prog, sim.Config{Stdout: console, CollectTrace: true, Metrics: obs.Registry})
		res, err := m.Run()
		if err != nil {
			return err
		}
		fmt.Fprintf(progress, "executed %d instructions, %d stalls\n", res.Instructions, res.Stalls)
		tr, text, name = res.Trace, prog.Text, fs.Arg(0)
	}

	if *saveTrace != "" {
		f, err := os.Create(*saveTrace)
		if err != nil {
			return err
		}
		if _, err := tr.WriteTo(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(progress, "wrote trace to %s\n", *saveTrace)
	}

	codes, err := cliutil.Codes(nil)
	if err != nil {
		return err
	}
	rom, err := core.BuildROM(text, core.Options{Codes: codes})
	if err != nil {
		return err
	}
	cfg := core.Config{
		CacheBytes: *cacheBytes,
		CLBEntries: *clbEntries,
		Mem:        mem,
	}
	if *dmiss < 1.0 {
		cfg.DataCache = true
		cfg.DCacheMissRate = *dmiss
	}
	profile, err := core.Replay(tr, rom, cfg)
	if err != nil {
		return err
	}
	cmp, err := core.Price(profile, rom, cfg)
	if err != nil {
		return err
	}
	if obs.Registry != nil {
		if err := core.Observe(obs.Registry, tr, profile, rom, cfg); err != nil {
			return err
		}
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(comparisonJSON{
			Program:        name,
			Memory:         mem.Name(),
			CacheBytes:     *cacheBytes,
			CLBEntries:     *clbEntries,
			DCacheMissRate: *dmiss,
			Instructions:   tr.Instructions(),
			Stalls:         tr.Stalls,
			ROMOriginal:    rom.OriginalSize,
			ROMCompressed:  rom.CompressedSize(),
			ROMRatio:       rom.Ratio(),
			Standard:       cmp.Standard,
			CCRP:           cmp.CCRP,
			RelPerf:        cmp.RelativePerformance(),
			MissRate:       cmp.MissRate(),
			TrafficRatio:   cmp.TrafficRatio(),
		})
	}
	fmt.Fprintf(stdout, "\n%s on %s, %dB cache, %d-entry CLB:\n", name, mem.Name(), *cacheBytes, *clbEntries)
	fmt.Fprintf(stdout, "  compressed ROM:        %d -> %d bytes (%.1f%%)\n",
		rom.OriginalSize, rom.CompressedSize(), 100*rom.Ratio())
	fmt.Fprintf(stdout, "  cache miss rate:       %.2f%%\n", 100*cmp.MissRate())
	fmt.Fprintf(stdout, "  standard cycles:       %d\n", cmp.Standard.Cycles)
	fmt.Fprintf(stdout, "  CCRP cycles:           %d (CLB misses: %d)\n", cmp.CCRP.Cycles, cmp.CCRP.CLBMisses)
	fmt.Fprintf(stdout, "  relative performance:  %.3f (CCRP/standard; <1 means CCRP faster)\n", cmp.RelativePerformance())
	fmt.Fprintf(stdout, "  memory traffic:        %.1f%%\n", 100*cmp.TrafficRatio())
	return nil
}
