package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccrp/internal/cliutil"
)

// TestGolden: the reports and -json documents for eightq, for the sum
// image of each ISA, and the report for the RV32 workload rv-sieve match
// the committed output byte for byte. A sum report starts with the
// program's own console output, 55 on both ISAs. In -json mode the
// progress line goes to stderr, so stdout is the JSON document alone.
func TestGolden(t *testing.T) {
	mips := filepath.Join("..", "ccasm", "testdata", "sum.mips.img")
	rv32 := filepath.Join("..", "ccasm", "testdata", "sum.rv32.img")
	for _, c := range []struct {
		golden, stderr string
		args           []string
	}{
		{"eightq-q", "", []string{"-workload", "eightq", "-q"}},
		{"eightq-q-json", "executed 357007 instructions, 0 stalls\n", []string{"-workload", "eightq", "-q", "-json"}},
		{"sum-mips", "", []string{mips}},
		{"sum-mips-q-json", "executed 72 instructions, 13 stalls\n", []string{"-q", "-json", mips}},
		{"sum-rv32", "", []string{rv32}},
		{"sum-rv32-q-json", "executed 47 instructions, 4 stalls\n", []string{"-q", "-json", rv32}},
		{"rv-sieve-q", "", []string{"-workload", "rv-sieve", "-q"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if err := run(c.args, &stdout, &stderr); err != nil {
			t.Fatalf("%s: %v (stderr %q)", c.golden, err, stderr.String())
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%s: stdout differs from testdata/%s.golden:\n%s", c.golden, c.golden, stdout.String())
		}
		if stderr.String() != c.stderr {
			t.Errorf("%s: stderr = %q, want %q", c.golden, stderr.String(), c.stderr)
		}
	}
}

// TestBadMissRate: a -dmiss that is not a fraction is a usage error
// before anything is simulated; stdout stays empty. Such rates once
// wrapped the data-cycle product or were echoed but priced as 1.
func TestBadMissRate(t *testing.T) {
	for _, v := range []string{"-0.5", "1.5", "NaN", "+Inf", "-Inf"} {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-workload", "eightq", "-q", "-json", "-dmiss", v}, &stdout, &stderr)
		var ue usageError
		if !errors.As(err, &ue) {
			t.Errorf("-dmiss %s: err = %v, want a usage error", v, err)
			continue
		}
		if !strings.Contains(err.Error(), "outside [0, 1]") {
			t.Errorf("-dmiss %s: err = %q, want it to name the range", v, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("-dmiss %s: wrote to stdout:\n%s", v, stdout.String())
		}
		if strings.Contains(stderr.String(), "executed") {
			t.Errorf("-dmiss %s: simulated before rejecting: %q", v, stderr.String())
		}
	}
}

// TestBadInput: a missing program, two inputs (a workload beside an
// image or a trace), a trace without exactly one image or a flag ccsim
// lacks (-events and -sample among them) is a usage error, and an
// unknown workload or memory model is an error that names it; none
// prints a report.
func TestBadInput(t *testing.T) {
	for _, c := range []struct {
		name  string
		args  []string
		usage bool
		want  string
	}{
		{"no input", nil, true, "want -workload name or one program"},
		{"unknown flag", []string{"-nonesuch"}, true, "not defined"},
		{"event stream", []string{"-workload", "eightq", "-events", "x"}, true, "not defined: -events"},
		{"event sampling", []string{"-workload", "eightq", "-sample", "1"}, true, "not defined: -sample"},
		{"span file", []string{"-workload", "eightq", "-spans", "x"}, true, "not defined: -spans"},
		{"unknown workload", []string{"-workload", "nonesuch"}, false, "nonesuch"},
		{"unknown memory", []string{"-workload", "eightq", "-mem", "SRAM"}, false, "SRAM"},
		{"trace without image", []string{"-trace", "t.trc"}, true, "-trace t.trc needs one program image for the text section, got 0"},
		{"trace and two images", []string{"-trace", "t.trc", "a.img", "b.img"}, true, "-trace t.trc needs one program image for the text section, got 2"},
		{"workload and image", []string{"-workload", "eightq", "prog.img"}, true, "-workload eightq and prog.img"},
		{"trace and workload", []string{"-trace", "t.trc", "-workload", "eightq", "prog.img"}, true, "-trace t.trc and -workload eightq"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(c.args, &stdout, &stderr)
		var ue usageError
		if err == nil || errors.As(err, &ue) != c.usage {
			t.Errorf("%s: err = %v, want a usage error: %v", c.name, err, c.usage)
			continue
		}
		if got := err.Error() + stderr.String(); !strings.Contains(got, c.want) {
			t.Errorf("%s: err %q, stderr %q; want %q", c.name, err, stderr.String(), c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: printed a report:\n%s", c.name, stdout.String())
		}
	}
}

// TestVersion: -version prints to the given stdout and succeeds.
func TestVersion(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-version"}, &stdout, &stderr); err != nil {
		t.Fatalf("%v (stderr %q)", err, stderr.String())
	}
	if want := "ccsim " + cliutil.Version() + "\n"; stdout.String() != want {
		t.Errorf("stdout %q, want %q", stdout.String(), want)
	}
}
