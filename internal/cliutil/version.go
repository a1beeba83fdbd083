package cliutil

import (
	"flag"
	"fmt"
	"io"
	"runtime/debug"
)

// Version returns the tool version string: the module version when the
// binary was built from a tagged module, plus the VCS revision (and a
// dirty marker) when build metadata is stamped. Development builds with
// no metadata report "devel".
func Version() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "devel"
	}
	v := info.Main.Version
	if v == "" || v == "(devel)" {
		v = "devel"
	}
	var rev string
	dirty := false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		if dirty {
			rev += "-dirty"
		}
		return fmt.Sprintf("%s (%s, %s)", v, rev, info.GoVersion)
	}
	return fmt.Sprintf("%s (%s)", v, info.GoVersion)
}

// RegisterVersionFlag installs the shared -version flag on fs. Call
// PrintVersion right after flag parsing.
func RegisterVersionFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("version", false, "print the tool version and exit")
}

// PrintVersion writes "<tool> <version>" to w when the -version flag was
// given, and reports whether it did; the command then exits with success
// without doing anything else. With the flag unset or nil it writes
// nothing and returns false.
func PrintVersion(w io.Writer, tool string, v *bool) bool {
	if v == nil || !*v {
		return false
	}
	fmt.Fprintf(w, "%s %s\n", tool, Version())
	return true
}
