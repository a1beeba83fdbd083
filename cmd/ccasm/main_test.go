package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccrp/internal/cliutil"
)

// TestGolden: the listing and the image of one program per ISA match
// the files the ccasm binary wrote before it ran in process.
func TestGolden(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct{ isa, summary string }{
		{"mips", "mips text 108 bytes, data 24 bytes, entry 0x00000000"},
		{"rv32", "rv32 text 80 bytes, data 13 bytes, entry 0x00000000"},
	} {
		src := filepath.Join("testdata", "sum."+c.isa+".s")
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-isa", c.isa, "-l", src}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s -l: exit %d, stderr %q", c.isa, code, stderr.String())
		}
		want, err := os.ReadFile(filepath.Join("testdata", "sum."+c.isa+".lst"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%s -l: listing differs from testdata/sum.%s.lst:\n%s", c.isa, c.isa, stdout.String())
		}

		img := filepath.Join(dir, "sum."+c.isa+".img")
		stdout.Reset()
		if code := run([]string{"-isa", c.isa, "-o", img, src}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s -o: exit %d, stderr %q", c.isa, code, stderr.String())
		}
		if want := img + ": " + c.summary + "\n"; stdout.String() != want {
			t.Errorf("%s -o: stdout %q, want %q", c.isa, stdout.String(), want)
		}
		got, err := os.ReadFile(img)
		if err != nil {
			t.Fatal(err)
		}
		want, err = os.ReadFile(filepath.Join("testdata", "sum."+c.isa+".img"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s -o: image differs from testdata/sum.%s.img", c.isa, c.isa)
		}
		if stderr.Len() != 0 {
			t.Errorf("%s: stderr %q", c.isa, stderr.String())
		}
	}
}

// TestFailures: a bad command line exits 2 and a source that does not
// assemble exits 1 with the line named; neither writes stdout or an
// image.
func TestFailures(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.s")
	if err := os.WriteFile(bad, []byte(".text\n\tnop\n\tfrob $t0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	img := filepath.Join(dir, "out.img")
	for _, c := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{nil, 2, "usage: ccasm"},
		{[]string{"-nope"}, 2, "flag provided but not defined"},
		{[]string{"-o", img, bad}, 1, "line 3: frob: unknown instruction"},
		{[]string{"-o", img, filepath.Join(dir, "missing.s")}, 1, "missing.s"},
		{[]string{"-isa", "vax", "-o", img, bad}, 1, "unknown backend"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.code {
			t.Errorf("%q: exit %d, want %d", c.args, code, c.code)
		}
		if !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("%q: stderr %q, want it to contain %q", c.args, stderr.String(), c.stderr)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: wrote to stdout: %q", c.args, stdout.String())
		}
	}
	if _, err := os.Stat(img); !os.IsNotExist(err) {
		t.Errorf("image written after a failure (stat: %v)", err)
	}
}

// TestVersion: -version prints to the given stdout and succeeds.
func TestVersion(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-version"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if want := "ccasm " + cliutil.Version() + "\n"; stdout.String() != want {
		t.Errorf("stdout %q, want %q", stdout.String(), want)
	}
}
