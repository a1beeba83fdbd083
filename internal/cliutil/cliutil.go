// Package cliutil holds the selection and loading helpers shared by the
// ccsim, cctrace, ccpack and ccdb commands: memory-model, workload, and
// program/trace resolution, Huffman code-set construction, and the
// observability flag block (-metrics/-cpuprofile/-memprofile) wired
// identically across the CLIs. The daemons (ccrpd, ccrp-router)
// share its listen-and-drain and tracer helpers (serve.go).
package cliutil

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ccrp/internal/asm"
	"ccrp/internal/experiments"
	"ccrp/internal/huffman"
	"ccrp/internal/memory"
	"ccrp/internal/metrics"
	"ccrp/internal/trace"
	"ccrp/internal/workload"
)

// MemoryModel resolves a -mem flag value.
func MemoryModel(name string) (memory.Model, error) {
	mem, ok := memory.ByName(name)
	if !ok {
		var names []string
		for _, m := range memory.Models() {
			names = append(names, fmt.Sprintf("%q", m.Name()))
		}
		return nil, fmt.Errorf("unknown memory model %q (have %s)", name, strings.Join(names, ", "))
	}
	return mem, nil
}

// ResolveWorkload resolves a -workload flag value.
func ResolveWorkload(name string) (*workload.Workload, error) {
	if w, ok := workload.ByName(name); ok {
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workload.Names())
}

// LoadProgram reads the program at path: an assembly source (.s/.asm),
// assembled on the spot for the ISA backend isaName ("" selects the
// default), or a binary program image, which names its own ISA. Either
// way the program is named path. The file is read once, so path may name
// a pipe.
func LoadProgram(path, isaName string) (*asm.Program, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".s") || strings.HasSuffix(path, ".asm") {
		return asm.AssembleFor(isaName, path, string(raw))
	}
	prog, err := asm.ReadImage(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	prog.Name = path
	return prog, nil
}

// LoadTrace reads a serialized instruction trace from path.
func LoadTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Read(bufio.NewReader(f))
}

// Codes builds the Huffman code candidate set: the preselected bounded
// corpus code, plus — when ownText is non-nil — a bounded code trained on
// that program's own bytes (ccpack -own). Both come out of the sweep
// artifact cache, so repeated calls train nothing twice.
func Codes(ownText []byte) ([]*huffman.Code, error) {
	presel, err := experiments.PreselectedCode()
	if err != nil {
		return nil, err
	}
	codes := []*huffman.Code{presel}
	if ownText != nil {
		own, err := experiments.OwnCode(ownText)
		if err != nil {
			return nil, err
		}
		codes = append(codes, own)
	}
	return codes, nil
}

// ObsFlags is the observability flag block shared by the CLIs. Register
// it after the command's own flags and before flag.Parse.
type ObsFlags struct {
	Metrics    *string
	CPUProfile *string
	MemProfile *string
}

// RegisterObsFlags installs the observability flags every CLI takes,
// -metrics, -cpuprofile and -memprofile, on fs (flag.CommandLine for the
// default set).
func RegisterObsFlags(fs *flag.FlagSet) *ObsFlags {
	return &ObsFlags{
		Metrics: fs.String("metrics", "",
			fmt.Sprintf("export metrics on stdout: %s", strings.Join(metrics.Formats(), ", "))),
		CPUProfile: fs.String("cpuprofile", "", "write a pprof CPU profile to this file"),
		MemProfile: fs.String("memprofile", "", "write a pprof heap profile at exit to this file"),
	}
}

// Obs is the live observability state for one command run.
type Obs struct {
	Registry *metrics.Registry // nil unless -metrics was given
	format   string
	memPath  string
	stopCPU  func() error
}

// Begin validates the flags and starts the CPU profile. Call Finish
// (usually deferred through a named error) at exit.
func (f *ObsFlags) Begin() (*Obs, error) {
	o := &Obs{format: *f.Metrics, memPath: *f.MemProfile}
	if o.format != "" {
		valid := false
		for _, known := range metrics.Formats() {
			valid = valid || known == o.format
		}
		if !valid {
			return nil, fmt.Errorf("unknown -metrics format %q (have %s)",
				o.format, strings.Join(metrics.Formats(), ", "))
		}
		o.Registry = metrics.New()
	}
	if *f.CPUProfile != "" {
		stop, err := StartCPUProfile(*f.CPUProfile)
		if err != nil {
			return nil, err
		}
		o.stopCPU = stop
	}
	return o, nil
}

// Finish writes the profiles and exports the metrics registry to stdout
// in the selected format.
func (o *Obs) Finish(stdout io.Writer) error {
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	if o.stopCPU != nil {
		keep(o.stopCPU())
	}
	if o.memPath != "" {
		keep(WriteHeapProfile(o.memPath))
	}
	if o.Registry != nil {
		keep(o.Registry.WriteFormat(stdout, o.format))
	}
	return first
}
