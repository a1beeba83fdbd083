package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccrp/internal/cliutil"
)

// TestGolden: the stats line of a corpus workload, and the stats line
// and ROM of an image, match what the ccpack binary wrote before it ran
// in process.
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

	rom := filepath.Join(t.TempDir(), "sum.mips.rom")
	stdout.Reset()
	img := filepath.Join("..", "ccasm", "testdata", "sum.mips.img")
	if code := run([]string{"-o", rom, img}, &stdout, &stderr); code != 0 {
		t.Fatalf("-o: exit %d, stderr %q", code, stderr.String())
	}
	want, err = os.ReadFile(filepath.Join("testdata", "sum.mips.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stdout.String(), string(want)+"wrote "+rom+"\n"; got != want {
		t.Errorf("-o: stdout %q, want %q", got, want)
	}
	got, err := os.ReadFile(rom)
	if err != nil {
		t.Fatal(err)
	}
	want, err = os.ReadFile(filepath.Join("testdata", "sum.mips.rom"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("-o: ROM differs from testdata/sum.mips.rom")
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr %q", stderr.String())
	}
}

// TestFailures: a bad command line exits 2 with nothing on stdout; a
// program that cannot be loaded, or a ROM that cannot be written, exits
// 1 and never reports the ROM written.
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
		if c.code == 2 && stdout.Len() != 0 || strings.Contains(stdout.String(), "wrote") {
			t.Errorf("%q: stdout %q", c.args, stdout.String())
		}
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
