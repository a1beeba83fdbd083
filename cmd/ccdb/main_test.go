package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccrp/internal/cliutil"
)

// TestGolden: a scripted session (testdata/session.txt: b, c, r, s 3,
// i, d, x, q) over each sum image matches what the ccdb binary wrote
// before it ran in process, but for the header, which names the image.
// The same session over the source, assembled with -isa, differs only in
// the header, which names the source.
func TestGolden(t *testing.T) {
	session, err := os.ReadFile(filepath.Join("testdata", "session.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sum.mips", "sum.rv32"} {
		want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		img := filepath.Join("..", "ccasm", "testdata", name+".img")
		var stdout, stderr bytes.Buffer
		if code := run([]string{img}, bytes.NewReader(session), &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", img, code, stderr.String())
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%s: session differs from testdata/%s.golden:\n%s", img, name, stdout.String())
		}

		src := filepath.Join("..", "ccasm", "testdata", name+".s")
		isaName := strings.TrimPrefix(filepath.Ext(name), ".")
		stdout.Reset()
		if code := run([]string{"-isa", isaName, src}, bytes.NewReader(session), &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", src, code, stderr.String())
		}
		wantSrc := strings.Replace(string(want), "ccdb: "+img+",", "ccdb: "+src+",", 1)
		if stdout.String() != wantSrc {
			t.Errorf("-isa %s %s: session differs from the image's:\n%s", isaName, src, stdout.String())
		}
		if stderr.Len() != 0 {
			t.Errorf("%s: stderr %q", name, stderr.String())
		}
	}
}

// TestBadCount: a step or dump count that is not a positive decimal
// integer is named in a one-line error, and the command does nothing.
func TestBadCount(t *testing.T) {
	img := filepath.Join("..", "ccasm", "testdata", "sum.mips.img")
	var stdout, stderr bytes.Buffer
	session := "s abc\nx 0 zz\ns 0\nx 0 -3\ni\nq\n"
	if code := run([]string{img}, strings.NewReader(session), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	want := "ccdb: " + img + ", 108 text bytes, entry 0x00000000. Type 'q' to quit.\n" +
		"00000000  0c000004  jal 0x00000010\n" +
		"(ccdb) bad count \"abc\" (a positive decimal integer)\n" +
		"(ccdb) bad count \"zz\" (a positive decimal integer)\n" +
		"(ccdb) bad count \"0\" (a positive decimal integer)\n" +
		"(ccdb) bad count \"-3\" (a positive decimal integer)\n" +
		"(ccdb) instructions=0 stalls=0 loads=0 stores=0 done=false\n" +
		"(ccdb) "
	if stdout.String() != want {
		t.Errorf("session:\n%s\nwant:\n%s", stdout.String(), want)
	}
}

// TestFailures: a bad command line exits 2 and a program that cannot be
// loaded exits 1; neither starts a session.
func TestFailures(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{nil, 2, "usage: ccdb"},
		{[]string{"-nope", "x.img"}, 2, "flag provided but not defined"},
		{[]string{filepath.Join(dir, "missing.img")}, 1, "missing.img"},
		{[]string{"-isa", "vax", filepath.Join("..", "ccasm", "testdata", "sum.mips.s")}, 1, "unknown backend"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, strings.NewReader("q\n"), &stdout, &stderr); code != c.code {
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
	if want := "ccdb " + cliutil.Version() + "\n"; stdout.String() != want {
		t.Errorf("stdout %q, want %q", stdout.String(), want)
	}
}
