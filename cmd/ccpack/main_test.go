package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccrp/internal/cliutil"
)

// TestGolden: the stats line of a corpus workload, and the stats lines
// and ROMs of that workload and of an image, match what the ccpack
// binary wrote before it ran in process. testdata/eightq.rom is also the
// ROM ccrpd must serve for eightq under the preselected coder.
func TestGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "eightq"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-workload: exit %d, stderr %q", code, stderr.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "eightq.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if stdout.String() != string(want) {
		t.Errorf("-workload eightq: stdout %q, want %q", stdout.String(), want)
	}

	dir := t.TempDir()
	for _, c := range []struct {
		name  string // of the stats line and ROM under testdata/
		input []string
	}{
		{"eightq", []string{"-workload", "eightq"}},
		{"sum.mips", []string{filepath.Join("..", "ccasm", "testdata", "sum.mips.img")}},
	} {
		rom := filepath.Join(dir, c.name+".rom")
		args := append([]string{"-o", rom}, c.input...)
		stdout.Reset()
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%q: exit %d, stderr %q", args, code, stderr.String())
		}
		want, err := os.ReadFile(filepath.Join("testdata", c.name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := stdout.String(), string(want)+"wrote "+rom+"\n"; got != want {
			t.Errorf("%q: stdout %q, want %q", args, got, want)
		}
		got, err := os.ReadFile(rom)
		if err != nil {
			t.Fatal(err)
		}
		want, err = os.ReadFile(filepath.Join("testdata", c.name+".rom"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%q: ROM differs from testdata/%s.rom", args, c.name)
		}
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr %q", stderr.String())
	}
}

// TestFailures: a bad command line exits 2; a program that cannot be
// loaded, or a ROM that cannot be written, exits 1. Neither prints a
// stats line: ccpack reports only after the ROM is safely written.
func TestFailures(t *testing.T) {
	dir := t.TempDir()
	img := filepath.Join("..", "ccasm", "testdata", "sum.mips.img")
	type failure struct {
		args   []string
		code   int
		stderr string
	}
	cases := []failure{
		{nil, 2, "usage: ccpack"},
		{[]string{"-nope", img}, 2, "flag provided but not defined"},
		{[]string{filepath.Join(dir, "missing.img")}, 1, "missing.img"},
		{[]string{"-workload", "nope"}, 1, `unknown workload "nope"`},
		{[]string{"-o", filepath.Join(dir, "no", "such", "dir.rom"), img}, 1, "no such file or directory"},
	}
	if _, err := os.Stat("/dev/full"); err == nil {
		// Every write to /dev/full fails, so the ROM is never written.
		cases = append(cases, failure{[]string{"-o", "/dev/full", img}, 1, "no space left on device"})
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.code {
			t.Errorf("%q: exit %d, want %d", c.args, code, c.code)
		}
		if !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("%q: stderr %q, want it to contain %q", c.args, stderr.String(), c.stderr)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: stdout %q", c.args, stdout.String())
		}
	}
}

// TestBadInput: a workload beside an image is two inputs, a usage error
// (exit 2) that names both; ccpack packs neither, so it prints no stats
// line and writes no ROM.
func TestBadInput(t *testing.T) {
	rom := filepath.Join(t.TempDir(), "out.rom")
	img := filepath.Join("..", "ccasm", "testdata", "sum.mips.img")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "eightq", "/nonexistent.img"}, "-workload eightq and /nonexistent.img"},
		{[]string{"-o", rom, "-workload", "eightq", img}, "-workload eightq and " + img},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", c.args, code)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%q: stderr %q, want it to contain %q", c.args, stderr.String(), c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: stdout %q", c.args, stdout.String())
		}
	}
	if _, err := os.Stat(rom); !os.IsNotExist(err) {
		t.Errorf("-o %s: the ROM was written (stat: %v)", rom, err)
	}
}

// TestVersion: -version prints to the given stdout and succeeds.
func TestVersion(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-version"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if want := "ccpack " + cliutil.Version() + "\n"; stdout.String() != want {
		t.Errorf("stdout %q, want %q", stdout.String(), want)
	}
}
