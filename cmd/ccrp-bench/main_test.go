package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccrp/internal/cliutil"
)

// TestUnknownExperiment: a bad -exp name is a usage error (exit 2) found
// before any experiment runs or any output file is created, wherever it
// sits in the list and whatever the output mode.
func TestUnknownExperiment(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.json")
	events := filepath.Join(dir, "ev.jsonl")
	for _, args := range [][]string{
		{"-exp", "fig5,nope"},
		{"-json", "-", "-exp", "nope"},
		{"-json", out, "-events", events, "-exp", "fig5,nope"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: wrote to stdout:\n%s", args, stdout.String())
		}
		if !strings.Contains(stderr.String(), `unknown experiment "nope"`) {
			t.Errorf("%q: stderr = %q, want it to name the experiment", args, stderr.String())
		}
	}
	for _, f := range []string{out, events} {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("%s exists after a usage error (stat: %v)", filepath.Base(f), err)
		}
	}
}

// TestRendersExperiment: a known name renders its table and exits 0.
func TestRendersExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "fig5"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Figure 5") {
		t.Errorf("stdout does not hold the Figure 5 table:\n%s", stdout.String())
	}
}

// TestVersion: -version prints to the given stdout and succeeds.
func TestVersion(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-version"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if want := "ccrp-bench " + cliutil.Version() + "\n"; stdout.String() != want {
		t.Errorf("stdout %q, want %q", stdout.String(), want)
	}
}
