// Command cctrace analyzes an instruction trace: dynamic mix, working
// set, per-cache-size miss rates, and the hottest code regions — the
// numbers a CCRP designer needs when choosing cache parameters for a
// program at development time (§4.3).
//
// Usage:
//
//	cctrace [-top 8] [-cache 1024] [-metrics table|json|prom]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	        (-workload name | trace.trc)
//
// With -metrics, one more cache pass at the -cache geometry counts the
// accesses, the hits and the misses of every set.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"ccrp/internal/cache"
	"ccrp/internal/cliutil"
	"ccrp/internal/trace"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	var ue usageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.As(err, &ue):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "cctrace:", err)
		os.Exit(1)
	}
}

// usageError is a bad command line, already reported with the usage
// text; main exits 2 on it, as flag parsing does.
type usageError struct{ error }

// lineBytes is the line size of the analyzed i-caches: the trace's own
// run line, so a run's fetches count in one line and only its first can
// miss.
const lineBytes = trace.LineBytes

// run parses args, writes the report to stdout, and reports command-line
// problems on stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cctrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: cctrace [flags] (-workload name | trace.trc)")
		fs.PrintDefaults()
	}
	wl := fs.String("workload", "", "analyze a corpus workload's trace")
	top := fs.Int("top", 8, "number of hot regions to list")
	cacheBytes := fs.Int("cache", 1024, "cache size of the -metrics pass")
	obsFlags := cliutil.RegisterObsFlags(fs)
	version := cliutil.RegisterVersionFlag(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	if cliutil.PrintVersion(stdout, "cctrace", version) {
		return nil
	}
	usage := func(format string, a ...any) error {
		err := fmt.Errorf(format, a...)
		fmt.Fprintln(fs.Output(), err)
		fs.Usage()
		return usageError{err}
	}
	if *top < 0 {
		return usage("-top %d is negative", *top)
	}
	switch {
	case *wl != "" && fs.NArg() > 0:
		return usage("-workload %s and %s are two inputs; want one", *wl, strings.Join(fs.Args(), " "))
	case *wl == "" && fs.NArg() != 1:
		return usage("want -workload name or one trace file")
	}
	ic, err := cache.New(*cacheBytes, lineBytes)
	if err != nil {
		return fmt.Errorf("-cache %d: %w", *cacheBytes, err)
	}

	obs, err := obsFlags.Begin()
	if err != nil {
		return err
	}
	if err := report(stdout, *wl, fs.Arg(0), *top, obs, ic); err != nil {
		obs.Finish(io.Discard) // stop the profiles; report's error wins
		return err
	}
	return obs.Finish(stdout)
}

// report analyzes the trace of workload wl, or else of the trace file
// path, listing the top hottest regions. With a registry in obs it also
// replays the trace through ic and counts what ic did.
func report(w io.Writer, wl, path string, top int, obs *cliutil.Obs, ic *cache.Cache) error {
	var tr *trace.Trace
	name := wl
	if wl != "" {
		wk, err := cliutil.ResolveWorkload(wl)
		if err != nil {
			return err
		}
		if tr, err = wk.Trace(); err != nil {
			return err
		}
	} else {
		var err error
		if tr, err = cliutil.LoadTrace(path); err != nil {
			return err
		}
		name = path
	}
	if len(tr.Events) == 0 {
		return fmt.Errorf("%s: the trace holds no instructions", name)
	}

	fmt.Fprintf(w, "%s: %d instructions, %d pipeline stalls\n", name, tr.Instructions(), tr.Stalls)
	var loads, stores uint64
	lines := map[uint32]uint64{}
	for _, run := range tr.Events {
		loads += uint64(run.Loads)
		stores += uint64(run.Stores)
		lines[run.PC/lineBytes] += uint64(run.N)
	}
	total := float64(tr.Instructions())
	fmt.Fprintf(w, "  loads  %9d (%.1f%%)\n", loads, 100*float64(loads)/total)
	fmt.Fprintf(w, "  stores %9d (%.1f%%)\n", stores, 100*float64(stores)/total)
	fmt.Fprintf(w, "  code working set: %d lines (%d bytes)\n", len(lines), len(lines)*lineBytes)

	fmt.Fprintln(w, "\n  direct-mapped i-cache miss rates (32B lines):")
	for _, size := range []int{256, 512, 1024, 2048, 4096, 8192} {
		c := cache.MustNew(size, lineBytes)
		for _, run := range tr.Events {
			c.AccessRun(run.PC, uint64(run.N))
		}
		fmt.Fprintf(w, "    %5dB  %6.2f%%\n", size, 100*c.Stats().MissRate())
	}

	// A pass at the chosen geometry, separate from the sweep above so the
	// per-set counts describe exactly one cache.
	if reg := obs.Registry; reg != nil {
		setMisses := make([]uint64, ic.Lines()) // direct mapped: a set per line
		for _, run := range tr.Events {
			if !ic.AccessRun(run.PC, uint64(run.N)) {
				setMisses[ic.Set(run.PC)]++
			}
		}
		s := ic.Stats()
		accesses, hits := cache.Counters(reg)
		accesses.Add(s.Accesses)
		hits.Add(s.Accesses - s.Misses)
		setVec := cache.SetMisses(reg)
		for set, n := range setMisses {
			setVec.WithInt(set).Add(n)
		}
	}

	type region struct {
		base  uint32
		count uint64
	}
	regions := map[uint32]uint64{}
	for line, n := range lines {
		regions[line>>3] += n // 256-byte regions
	}
	var hot []region
	for base, n := range regions {
		hot = append(hot, region{base, n})
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].count != hot[j].count {
			return hot[i].count > hot[j].count
		}
		return hot[i].base < hot[j].base
	})
	top = min(top, len(hot))
	fmt.Fprintf(w, "\n  hottest %d regions (256B granularity):\n", top)
	for _, r := range hot[:top] {
		fmt.Fprintf(w, "    %08x  %9d fetches (%.1f%%)\n", r.base<<8, r.count, 100*float64(r.count)/total)
	}
	return nil
}
