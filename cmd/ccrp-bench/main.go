// Command ccrp-bench regenerates the paper's tables and figures from the
// reproduction (see DESIGN.md's experiment index and EXPERIMENTS.md for
// paper-vs-measured results).
//
// Usage:
//
//	ccrp-bench [-exp all|fig1|fig2|fig5|fig9|tables1-8|tables9-10|tables11-13|ablations|extensions|paging|codepack|rvc[,...]]
//	           [-j N] [-json out.json]
//	           [-metrics table|json|prom] [-events ev.jsonl] [-sample N]
//	           [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -j fans the performance sweeps out across N workers (default: all
// CPUs; -j 1 preserves the sequential order of execution). Results are
// merged by point index, so the output is byte-identical at any -j.
//
// -json writes every datapoint of the selected experiments as one
// machine-readable JSON document ("-" for stdout) instead of the rendered
// tables. Its sha256 over the full sweep is the reproduction's identity:
// go run ./cmd/ccrp-bench -json - | sha256sum.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"ccrp/internal/cliutil"
	"ccrp/internal/experiments"
	"ccrp/internal/sweep"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments to run")
	workers := flag.Int("j", runtime.NumCPU(), "parallel sweep workers (1 = sequential)")
	jsonOut := flag.String("json", "", `write experiment datapoints as JSON to this file ("-" for stdout)`)
	obsFlags := cliutil.RegisterObsFlags(flag.CommandLine)
	version := cliutil.RegisterVersionFlag(flag.CommandLine)
	flag.Parse()
	cliutil.HandleVersionFlag("ccrp-bench", version)

	obs, err := obsFlags.Begin()
	if err != nil {
		fatal(err)
	}
	experiments.SetEngine(&sweep.Engine{
		Workers:  *workers,
		Registry: obs.Registry,
		Sink:     obs.Sink,
		Tracer:   obs.Tracer,
	})

	var names []string
	if *exp != "all" {
		names = strings.Split(*exp, ",")
	}

	if *jsonOut != "" {
		w := io.Writer(os.Stdout)
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := experiments.WriteBenchJSON(w, names); err != nil {
			fatal(err)
		}
		if *jsonOut != "-" {
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		finish(obs)
		return
	}

	if names == nil {
		names = experiments.Experiments
	}
	for _, name := range names {
		run, ok := experiments.Renderer(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "ccrp-bench: unknown experiment %q; have all %v\n", name, experiments.Experiments)
			os.Exit(2)
		}
		if len(names) > 1 {
			fmt.Printf("==== %s ====\n", name)
		}
		if err := run(os.Stdout); err != nil {
			fatal(err)
		}
		if len(names) > 1 {
			fmt.Println()
		}
	}
	finish(obs)
}

func finish(obs *cliutil.Obs) {
	experiments.SetEngine(nil)
	if err := obs.Finish(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccrp-bench:", err)
	os.Exit(1)
}
