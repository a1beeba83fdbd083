package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccrp/internal/asm"
	"ccrp/internal/cliutil"
)

// TestGolden: the disassembly of an image per ISA, and of the CROM file
// ccpack -o wrote for the MIPS one, match the files the ccdis binary
// wrote before it ran in process; -raw writes the ROM's decompressed
// text.
func TestGolden(t *testing.T) {
	mipsImg := filepath.Join("..", "ccasm", "testdata", "sum.mips.img")
	rom := filepath.Join("..", "ccpack", "testdata", "sum.mips.rom")
	raw := filepath.Join(t.TempDir(), "sum.bin")
	for _, c := range []struct {
		args   []string
		golden string
	}{
		{[]string{mipsImg}, "sum.mips.dis"},
		{[]string{filepath.Join("..", "ccasm", "testdata", "sum.rv32.img")}, "sum.rv32.dis"},
		{[]string{"-rom", "-raw", raw, rom}, "sum.mips.rom.dis"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 0 {
			t.Fatalf("%q: exit %d, stderr %q", c.args, code, stderr.String())
		}
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%q: output differs from testdata/%s:\n%s", c.args, c.golden, stdout.String())
		}
		if stderr.Len() != 0 {
			t.Errorf("%q: stderr %q", c.args, stderr.String())
		}
	}

	// The ROM holds the image's text, padded with zero words to whole
	// lines.
	f, err := os.Open(mipsImg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	prog, err := asm.ReadImage(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < len(prog.Text) || !bytes.Equal(got[:len(prog.Text)], prog.Text) ||
		strings.Trim(string(got[len(prog.Text):]), "\x00") != "" {
		t.Errorf("-raw wrote %d bytes that are not the image's %d text bytes and zero padding", len(got), len(prog.Text))
	}
}

// TestFailures: a bad command line exits 2, -raw without -rom among
// them, and an input that cannot be read exits 1; none writes stdout,
// and none writes -raw's file.
func TestFailures(t *testing.T) {
	dir := t.TempDir()
	img := filepath.Join("..", "ccasm", "testdata", "sum.mips.img")
	raw := filepath.Join(dir, "out.bin")
	for _, c := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{nil, 2, "usage: ccdis"},
		{[]string{"-nope", img}, 2, "flag provided but not defined"},
		{[]string{"-raw", raw, img}, 2, "-raw needs -rom"},
		{[]string{filepath.Join(dir, "missing.img")}, 1, "missing.img"},
		{[]string{"-rom", "-raw", raw, img}, 1, "bad magic"},
		{[]string{"-isa", "vax", img}, 1, "unknown backend"},
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
	if _, err := os.Stat(raw); !os.IsNotExist(err) {
		t.Errorf("-raw file written after a failure (stat: %v)", err)
	}
}

// TestVersion: -version prints to the given stdout and succeeds.
func TestVersion(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-version"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if want := "ccdis " + cliutil.Version() + "\n"; stdout.String() != want {
		t.Errorf("stdout %q, want %q", stdout.String(), want)
	}
}
