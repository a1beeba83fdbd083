// Command ccrp-bench regenerates the paper's tables and figures from the
// reproduction (see DESIGN.md's experiment index and EXPERIMENTS.md for
// paper-vs-measured results).
//
// Usage:
//
//	ccrp-bench [-exp all|fig1|fig2|fig5|fig9|tables1-8|tables9-10|tables11-13|ablations|extensions|paging|codepack|rvc[,...]]
//	           [-j N] [-json out.json]
//	           [-metrics table|json|prom] [-spans sp.jsonl]
//	           [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -j fans the performance sweeps out across N workers (default: all
// CPUs; -j 1 preserves the sequential order of execution). Results are
// merged by point index, so the output is byte-identical at any -j.
//
// -spans appends one sweep_point span per point of a performance sweep,
// with its train, build and run children, as JSONL to a file ("-" for
// stderr), for ccrp-spans to analyze.
//
// -metrics prints the performance sweeps' totals after the output:
// i-cache accesses and hits, CLB hits and misses, and the CCRP's refill
// cycles, each summed over the priced points in point order, so they
// too read the same at any -j.
//
// -json writes every datapoint of the selected experiments as one
// machine-readable JSON document ("-" for stdout) instead of the rendered
// tables. Its sha256 over the full sweep is the reproduction's identity:
// go run ./cmd/ccrp-bench -json - | sha256sum.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"

	"ccrp/internal/cliutil"
	"ccrp/internal/experiments"
	"ccrp/internal/sweep"
	"ccrp/internal/tracing"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the selected experiments and returns the exit
// status: 0 on success, 2 for a bad command line, 1 when an experiment
// or an output fails. Every -exp name is checked before any experiment
// runs or any file is created.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccrp-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "comma-separated experiments to run")
	workers := fs.Int("j", runtime.NumCPU(), "parallel sweep workers (1 = sequential)")
	jsonOut := fs.String("json", "", `write experiment datapoints as JSON to this file ("-" for stdout)`)
	spans := fs.String("spans", "", `append per-stage tracing spans as JSONL to this file ("-" for stderr; analyze with ccrp-spans)`)
	obsFlags := cliutil.RegisterObsFlags(fs)
	version := cliutil.RegisterVersionFlag(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if cliutil.PrintVersion(stdout, "ccrp-bench", version) {
		return 0
	}

	names, err := experimentNames(*exp)
	if err != nil {
		fmt.Fprintln(stderr, "ccrp-bench:", err)
		return 2
	}
	if err := bench(names, *workers, *jsonOut, *spans, obsFlags, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "ccrp-bench:", err)
		return 1
	}
	return 0
}

// experimentNames resolves -exp: "all", or a comma-separated list of
// known experiments.
func experimentNames(exp string) ([]string, error) {
	known := experiments.Names()
	if exp == "all" {
		return known, nil
	}
	names := strings.Split(exp, ",")
	for _, name := range names {
		if !slices.Contains(known, name) {
			return nil, fmt.Errorf("unknown experiment %q; have all %v", name, known)
		}
	}
	return names, nil
}

// bench runs the named experiments and writes their tables to stdout, or
// with jsonOut their datapoints, then the observability outputs.
func bench(names []string, workers int, jsonOut, spans string, obsFlags *cliutil.ObsFlags, stdout, stderr io.Writer) (err error) {
	var tracer *tracing.Tracer
	if spans != "" {
		if tracer, err = cliutil.OpenTracer(spans, stderr); err != nil {
			return err
		}
		defer func() {
			if cerr := tracer.Close(); err == nil {
				err = cerr
			}
		}()
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
	experiments.SetEngine(&sweep.Engine{
		Workers:  workers,
		Registry: obs.Registry,
		Tracer:   tracer,
	})
	defer experiments.SetEngine(nil)

	if jsonOut != "" {
		return writeJSON(names, jsonOut, stdout)
	}
	for _, name := range names {
		if len(names) > 1 {
			fmt.Fprintf(stdout, "==== %s ====\n", name)
		}
		if err := experiments.Render(stdout, name); err != nil {
			return err
		}
		if len(names) > 1 {
			fmt.Fprintln(stdout)
		}
	}
	return nil
}

// writeJSON writes the experiments' datapoints to path, "-" for stdout.
func writeJSON(names []string, path string, stdout io.Writer) error {
	if path == "-" {
		return experiments.WriteBenchJSON(stdout, names)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := experiments.WriteBenchJSON(f, names); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}
