package cliutil

import (
	"flag"
	"strings"
	"testing"
)

func TestVersionNonEmpty(t *testing.T) {
	v := Version()
	if v == "" {
		t.Fatal("Version() returned an empty string")
	}
	// Test binaries always carry build info; at minimum the go version
	// or the devel marker must be present.
	if !strings.Contains(v, "go") && !strings.Contains(v, "devel") {
		t.Errorf("Version() = %q, want a go version or devel marker", v)
	}
}

func TestRegisterVersionFlag(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	v := RegisterVersionFlag(fs)
	if err := fs.Parse([]string{"-version"}); err != nil {
		t.Fatal(err)
	}
	if !*v {
		t.Error("-version flag did not parse to true")
	}
	var out strings.Builder
	if !PrintVersion(&out, "test", v) {
		t.Error("PrintVersion with the flag set reported false")
	}
	if want := "test " + Version() + "\n"; out.String() != want {
		t.Errorf("PrintVersion wrote %q, want %q", out.String(), want)
	}
	// PrintVersion must do nothing when the flag is unset or nil.
	out.Reset()
	off := false
	if PrintVersion(&out, "test", &off) || PrintVersion(&out, "test", nil) || out.Len() != 0 {
		t.Errorf("PrintVersion without the flag reported true or wrote %q", out.String())
	}
}
