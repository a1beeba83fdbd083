// Command ccdis disassembles the text section of an image produced by
// ccasm, or of a compressed CROM image produced by ccpack. Images carry
// their ISA name, so the right backend is picked automatically; CROM
// files hold raw text bytes, so -rom mode accepts -isa (default: the
// MIPS backend).
//
// Usage:
//
//	ccdis [-version] prog.img
//	ccdis -rom [-isa mips|rv32] [-raw out.bin] prog.rom
//
// With -rom the input is a CROM file: every block is decompressed and
// the recovered text is disassembled. -raw additionally writes the
// decompressed text bytes to a file; without -rom it is a usage error.
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ccrp/internal/asm"
	"ccrp/internal/cliutil"
	"ccrp/internal/core"
	"ccrp/internal/isa"
	_ "ccrp/internal/mips"  // register backend
	_ "ccrp/internal/riscv" // register backend
)

const usage = "usage: ccdis [-rom [-isa name] [-raw out.bin]] prog.img"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and writes the disassembly to stdout. It returns the
// exit status: 0 on success, 2 for a bad command line (-raw without -rom
// included), 1 when the input cannot be read or -raw's file cannot be
// written.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccdis", flag.ContinueOnError)
	fs.SetOutput(stderr)
	romMode := fs.Bool("rom", false, "input is a compressed CROM image (ccpack output)")
	rawOut := fs.String("raw", "", "with -rom, also write the decompressed text bytes to this file")
	isaName := fs.String("isa", "", "ISA backend for -rom text ("+strings.Join(isa.Names(), "|")+"; default "+isa.DefaultName+")")
	version := cliutil.RegisterVersionFlag(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if cliutil.PrintVersion(stdout, "ccdis", version) {
		return 0
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	if *rawOut != "" && !*romMode {
		fmt.Fprintln(stderr, "ccdis: -raw needs -rom")
		fmt.Fprintln(stderr, usage)
		return 2
	}
	if err := disassemble(stdout, fs.Arg(0), *isaName, *romMode, *rawOut); err != nil {
		fmt.Fprintln(stderr, "ccdis:", err)
		return 1
	}
	return 0
}

// disassemble reads the image at path, a CROM file with romMode, and
// writes one line per text word to w. With romMode and a rawOut path it
// also writes the decompressed text there.
func disassemble(w io.Writer, path, isaName string, romMode bool, rawOut string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	var text []byte
	arch, err := isa.Lookup(isaName)
	if err != nil {
		return err
	}
	if romMode {
		rom, err := core.ReadROMFile(f)
		if err != nil {
			return err
		}
		text = rom.Text()
		if rawOut != "" {
			if err := os.WriteFile(rawOut, text, 0o644); err != nil {
				return err
			}
		}
	} else {
		prog, err := asm.ReadImage(f)
		if err != nil {
			return err
		}
		text = prog.Text
		if isaName == "" {
			arch = isa.MustLookup(prog.ISA)
		}
	}
	for off := 0; off+4 <= len(text); off += 4 {
		addr := asm.TextBase + uint32(off)
		word := isa.Word(binary.LittleEndian.Uint32(text[off:]))
		fmt.Fprintf(w, "%08x  %08x  %s\n", addr, uint32(word), arch.Disassemble(word, addr))
	}
	return nil
}
