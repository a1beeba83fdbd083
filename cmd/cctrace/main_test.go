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

// TestInstrumentedPassPinned pins the instrumented pass: the report with
// its Prometheus exposition, and the unsampled fetch/miss event stream.
func TestInstrumentedPassPinned(t *testing.T) {
	const (
		wantStdout = "965dbbf98fad0e403710c6048b85ab43213c4f7db71053d833750a672a7be324"
		wantEvents = "4b732873808bfaf28f13da07dd646b5c40923725bc772996d8b920f077700bae"
	)
	events := filepath.Join(t.TempDir(), "ev.jsonl")
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", "rv-matrix", "-cache", "512", "-metrics", "prom", "-events", events, "-sample", "1"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("%v (stderr %q)", err, stderr.String())
	}
	ev, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what, want string
		data       []byte
	}{{"stdout", wantStdout, stdout.Bytes()}, {"event stream", wantEvents, ev}} {
		sum := sha256.Sum256(c.data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s sha256 = %s, want %s", c.what, got, c.want)
		}
	}
}

// TestBadInput: a bad command line is a usage error (exit 2); a bad
// -cache geometry, an empty trace and a version-1 trace file are errors
// that name the problem (exit 1). None panics or prints a report.
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
		{"unknown flag", []string{"-nonesuch"}, true, "not defined"},
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
