package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccrp/internal/cliutil"
)

// TestGolden: the tables, the -json document and a -top/-stage report
// over a span file ccrpd wrote (testdata/spans.jsonl) match what the
// ccrp-spans binary wrote before it ran in process. The file read from
// stdin, by no argument or "-", reports the same.
func TestGolden(t *testing.T) {
	spans := filepath.Join("testdata", "spans.jsonl")
	raw, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"spans.txt", []string{spans}},
		{"spans.txt", nil},
		{"spans.txt", []string{"-"}},
		{"spans.json", []string{"-json", spans}},
		{"spans-top1-request.txt", []string{"-top", "1", "-stage", "request", spans}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run(c.args, bytes.NewReader(raw), &stdout, &stderr); code != 0 {
			t.Fatalf("%q: exit %d, stderr %q", c.args, code, stderr.String())
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%q: stdout differs from testdata/%s:\n%s", c.args, c.golden, stdout.String())
		}
		if stderr.Len() != 0 {
			t.Errorf("%q: stderr %q", c.args, stderr.String())
		}
	}
}

// TestFailures: a bad command line exits 2; input that cannot be read,
// holds no records, or lacks the asked-for stage exits 1. None prints a
// report.
func TestFailures(t *testing.T) {
	spans := filepath.Join("testdata", "spans.jsonl")
	for _, c := range []struct {
		args   []string
		stdin  string
		code   int
		stderr string
	}{
		{[]string{"-nope"}, "", 2, "flag provided but not defined"},
		{[]string{filepath.Join(t.TempDir(), "missing.jsonl")}, "", 1, "missing.jsonl"},
		{nil, "", 1, "no span records"},
		{nil, "{\"trace\":\"t\",\"span\":\"a\",\"stage\":\"request\"}\nnot json\n", 1, "line 2"},
		{[]string{"-stage", "nope", spans}, "", 1, `no spans with stage "nope"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, strings.NewReader(c.stdin), &stdout, &stderr); code != c.code {
			t.Errorf("%q: exit %d, want %d", c.args, code, c.code)
		}
		if !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("%q: stderr %q, want it to contain %q", c.args, stderr.String(), c.stderr)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: wrote to stdout: %q", c.args, stdout.String())
		}
	}
}

// TestVersion: -version prints to the given stdout and succeeds.
func TestVersion(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-version"}, nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if want := "ccrp-spans " + cliutil.Version() + "\n"; stdout.String() != want {
		t.Errorf("stdout %q, want %q", stdout.String(), want)
	}
}
