// Command ccrp-spans analyzes the JSONL span streams written by ccrpd
// -trace, ccrp-router -trace and ccrp-bench -spans: it reconstructs span
// trees, aggregates per-stage latency percentiles, self time, and
// critical-path attribution, and reports how much of each request's
// end-to-end time the instrumented stages explain.
//
// Usage:
//
//	ccrp-spans [-json] [-top 5] [-stage request] [spans.jsonl ...]
//
// With no files (or "-") it reads stdin, so it composes with a live
// daemon: ccrpd -trace - 2>&1 | ccrp-spans. Multiple files concatenate;
// ids are unique per tracer run, so mixing runs is safe.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ccrp/internal/cliutil"
	"ccrp/internal/tablefmt"
	"ccrp/internal/tracing"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run parses args, analyzes the span records of the named files (stdin
// for none or "-") and writes the report to stdout. It returns the exit
// status: 0 on success, 2 for a bad command line, 1 when the records
// cannot be read or hold nothing to report.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccrp-spans", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the analysis as JSON instead of tables")
	top := fs.Int("top", 5, "number of slowest traces to break down (0 disables)")
	stage := fs.String("stage", "", "only report this stage in the stage table")
	version := cliutil.RegisterVersionFlag(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if cliutil.PrintVersion(stdout, "ccrp-spans", version) {
		return 0
	}
	if err := report(stdout, stdin, fs.Args(), *jsonOut, *top, *stage); err != nil {
		fmt.Fprintf(stderr, "ccrp-spans: %v\n", err)
		return 1
	}
	return 0
}

// report analyzes the records of paths and writes the tables, or with
// asJSON the analysis document, to w.
func report(w io.Writer, stdin io.Reader, paths []string, asJSON bool, top int, stage string) error {
	recs, err := readAll(stdin, paths)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("no span records (is tracing enabled? start ccrpd with -trace spans.jsonl)")
	}
	a := tracing.Analyze(recs, top)

	if stage != "" {
		kept := a.Stages[:0]
		for _, s := range a.Stages {
			if s.Stage == stage {
				kept = append(kept, s)
			}
		}
		if len(kept) == 0 {
			return fmt.Errorf("no spans with stage %q", stage)
		}
		a.Stages = kept
	}

	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(a)
	}
	render(w, a)
	return nil
}

// readAll concatenates the span records of every named file, with "-"
// (or an empty list) meaning stdin.
func readAll(stdin io.Reader, paths []string) ([]tracing.Record, error) {
	if len(paths) == 0 {
		paths = []string{"-"}
	}
	var recs []tracing.Record
	for _, path := range paths {
		r := stdin
		if path != "-" {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			r = f
		}
		part, err := tracing.ReadRecords(r)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, part...)
	}
	return recs, nil
}

// render writes the human-readable report.
func render(w io.Writer, a *tracing.Analysis) {
	fmt.Fprintf(w, "%d spans, %d traces, %d roots\n", a.Spans, a.Traces, a.Roots)
	if a.Coverage.Roots > 0 {
		fmt.Fprintf(w, "stage coverage: mean %.1f%% of root time, min %.1f%% (over %d decomposed roots)\n",
			100*a.Coverage.MeanFrac, 100*a.Coverage.MinFrac, a.Coverage.Roots)
	}
	fmt.Fprintln(w)

	t := &tablefmt.Table{
		Title: "Per-stage latency (critical-path order)",
		Headers: []string{"stage", "count", "p50 ms", "p95 ms", "p99 ms",
			"max ms", "total ms", "self ms", "crit ms", "errors"},
	}
	for _, s := range a.Stages {
		t.AddRow(s.Stage, fmt.Sprintf("%d", s.Count),
			ms(s.P50MS), ms(s.P95MS), ms(s.P99MS), ms(s.MaxMS),
			ms(s.TotalMS), ms(s.SelfMS), ms(s.CritMS),
			fmt.Sprintf("%d", s.Errors))
	}
	t.Render(w)

	if len(a.Slowest) == 0 {
		return
	}
	fmt.Fprintln(w)
	st := &tablefmt.Table{
		Title:   "Slowest traces",
		Headers: []string{"trace", "root", "dur ms", "breakdown"},
	}
	for _, s := range a.Slowest {
		breakdown := ""
		for i, c := range s.Stages {
			if i > 0 {
				breakdown += " "
			}
			breakdown += fmt.Sprintf("%s=%s", c.Stage, ms(c.DurMS))
		}
		if s.Err != "" {
			breakdown += " [err]"
		}
		st.AddRow(s.Trace, s.Stage, ms(s.DurMS), breakdown)
	}
	st.Render(w)
}

// ms formats a millisecond value with enough precision for sub-ms stages.
func ms(v float64) string { return fmt.Sprintf("%.3f", v) }
