// Command ccpack is the host-side CCRP compression tool: it compresses a
// program's text section line by line, builds the Line Address Table, and
// writes the ROM image the embedded system stores — the step the paper
// likens to the Unix compress utility, run once at development time.
//
// Usage:
//
//	ccpack [-o prog.rom] [-word] [-own] (-workload name | prog.img)
//
// By default the Preselected Bounded Huffman code (trained on the
// ten-program corpus, hardwired in the decoder) is used; -own adds the
// program's own bounded code as a second candidate with per-block tags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ccrp/internal/cliutil"
	"ccrp/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, compresses the program and writes its stats line,
// and with -o the ROM, to stdout. It returns the exit status: 0 on
// success, 2 for a bad command line, 1 when the program cannot be loaded
// or compressed or the ROM cannot be written.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccpack", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "output ROM path (omit for stats only)")
	word := fs.Bool("word", false, "word-align compressed blocks")
	own := fs.Bool("own", false, "add the program's own bounded code as a second candidate")
	wl := fs.String("workload", "", "compress a corpus workload instead of an image file")
	version := cliutil.RegisterVersionFlag(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if cliutil.PrintVersion(stdout, "ccpack", version) {
		return 0
	}
	const usage = "usage: ccpack [-o out.rom] [-word] [-own] (-workload name | prog.img)"
	switch {
	case *wl != "" && fs.NArg() > 0:
		fmt.Fprintf(stderr, "ccpack: -workload %s and %s are two inputs; want one\n%s\n",
			*wl, strings.Join(fs.Args(), " "), usage)
		return 2
	case *wl == "" && fs.NArg() != 1:
		fmt.Fprintln(stderr, usage)
		return 2
	}
	if err := pack(stdout, *wl, fs.Arg(0), *out, *word, *own); err != nil {
		fmt.Fprintln(stderr, "ccpack:", err)
		return 1
	}
	return 0
}

// pack compresses the text of workload wl, or else of the program at
// path, writes the ROM to out when it is set, and then reports the stats
// line to w, so a ROM that cannot be written leaves w untouched.
func pack(w io.Writer, wl, path, out string, word, own bool) error {
	var text []byte
	name := wl
	if wl != "" {
		wk, err := cliutil.ResolveWorkload(wl)
		if err != nil {
			return err
		}
		if text, err = wk.Text(); err != nil {
			return err
		}
	} else {
		prog, err := cliutil.LoadProgram(path, "")
		if err != nil {
			return err
		}
		text, name = prog.Text, path
	}

	ownText := []byte(nil)
	if own {
		ownText = text
	}
	codes, err := cliutil.Codes(ownText)
	if err != nil {
		return err
	}
	rom, err := core.BuildROM(text, core.Options{Codes: codes, WordAligned: word})
	if err != nil {
		return err
	}
	if err := rom.Verify(); err != nil {
		return err
	}
	if out != "" {
		if err := writeROM(rom, out); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "%s: %d bytes -> %d (blocks %d + LAT %d), ratio %.1f%%, %d/%d raw lines\n",
		name, rom.OriginalSize, rom.CompressedSize(), rom.BlocksSize(), rom.TableSize(),
		100*rom.Ratio(), rom.RawLines(), len(rom.Lines))
	if out != "" {
		fmt.Fprintf(w, "wrote %s\n", out)
	}
	return nil
}

// writeROM writes rom to a new file at path and closes it.
func writeROM(rom *core.ROM, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rom.WriteFile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
