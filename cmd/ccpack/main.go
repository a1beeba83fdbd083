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
	"flag"
	"fmt"
	"os"

	"ccrp/internal/cliutil"
	"ccrp/internal/core"
)

func main() {
	out := flag.String("o", "", "output ROM path (omit for stats only)")
	word := flag.Bool("word", false, "word-align compressed blocks")
	own := flag.Bool("own", false, "add the program's own bounded code as a second candidate")
	wl := flag.String("workload", "", "compress a corpus workload instead of an image file")
	version := cliutil.RegisterVersionFlag(flag.CommandLine)
	flag.Parse()
	if cliutil.PrintVersion(os.Stdout, "ccpack", version) {
		return
	}

	var text []byte
	var name string
	switch {
	case *wl != "":
		w, err := cliutil.ResolveWorkload(*wl)
		if err != nil {
			fatal(err)
		}
		t, err := w.Text()
		if err != nil {
			fatal(err)
		}
		text, name = t, *wl
	case flag.NArg() == 1:
		prog, err := cliutil.LoadProgram(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		text, name = prog.Text, flag.Arg(0)
	default:
		fmt.Fprintln(os.Stderr, "usage: ccpack [-o out.rom] [-word] [-own] (-workload name | prog.img)")
		os.Exit(2)
	}

	ownText := []byte(nil)
	if *own {
		ownText = text
	}
	codes, err := cliutil.Codes(ownText)
	if err != nil {
		fatal(err)
	}
	rom, err := core.BuildROM(text, core.Options{Codes: codes, WordAligned: *word})
	if err != nil {
		fatal(err)
	}
	if err := rom.Verify(); err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %d bytes -> %d (blocks %d + LAT %d), ratio %.1f%%, %d/%d raw lines\n",
		name, rom.OriginalSize, rom.CompressedSize(), rom.BlocksSize(), rom.TableSize(),
		100*rom.Ratio(), rom.RawLines(), len(rom.Lines))
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := rom.WriteFile(f); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccpack:", err)
	os.Exit(1)
}
