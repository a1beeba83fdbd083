package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccrp/internal/cliutil"
	"ccrp/internal/trace"
)

// TestReportGolden: the report for a MIPS and an RV32 workload matches
// the committed output byte for byte.
func TestReportGolden(t *testing.T) {
	for _, wl := range []string{"eightq", "rv-matrix"} {
		want, err := os.ReadFile(filepath.Join("testdata", wl+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-workload", wl}, &stdout, &stderr); err != nil {
			t.Fatalf("%s: %v (stderr %q)", wl, err, stderr.String())
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%s report differs from testdata/%s.golden:\n%s", wl, wl, stdout.String())
		}
	}
}

// TestInstrumentedPassPinned pins the report with the -metrics pass's
// Prometheus exposition: the accesses, hits and per-set misses of a
// 512-byte cache over rv-matrix.
func TestInstrumentedPassPinned(t *testing.T) {
	const want = "d6f08826bca6939eae114b8036701448c391b50205318a8a8f05042c5beb0539"
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", "rv-matrix", "-cache", "512", "-metrics", "prom"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("%v (stderr %q)", err, stderr.String())
	}
	sum := sha256.Sum256(stdout.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("stdout sha256 = %s, want %s", got, want)
	}
}

// TestBadInput: a bad command line, -events, -sample and a workload
// beside a trace file included, is a usage error (exit 2); a bad -cache
// geometry, an empty trace and a version-1 trace file are errors that
// name the problem (exit 1). None panics or prints a report.
func TestBadInput(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.trc")
	f, err := os.Create(empty)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&trace.Trace{}).WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	v1 := filepath.Join(dir, "v1.trc")
	hdr := []byte("TRCC\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x00")
	if err := os.WriteFile(v1, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		args  []string
		usage bool
		want  string
	}{
		{"negative top", []string{"-workload", "eightq", "-top", "-1"}, true, "-top -1 is negative"},
		{"no input", nil, true, "want -workload name or one trace file"},
		{"workload and file", []string{"-workload", "eightq", "t.trc"}, true, "-workload eightq and t.trc"},
		{"unknown flag", []string{"-nonesuch"}, true, "not defined"},
		{"event stream", []string{"-workload", "eightq", "-events", "x"}, true, "not defined: -events"},
		{"event sampling", []string{"-workload", "eightq", "-sample", "1"}, true, "not defined: -sample"},
		{"span file", []string{"-workload", "eightq", "-spans", "x"}, true, "not defined: -spans"},
		{"bad cache", []string{"-workload", "eightq", "-cache", "1000", "-metrics", "prom"}, false, "-cache 1000: cache: bad geometry"},
		{"empty trace", []string{empty}, false, "empty.trc: the trace holds no instructions"},
		{"version 1 trace", []string{v1}, false, "unsupported version 1"},
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
	if want := "cctrace " + cliutil.Version() + "\n"; stdout.String() != want {
		t.Errorf("stdout %q, want %q", stdout.String(), want)
	}
}
