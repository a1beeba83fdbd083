// Command ccasm assembles RISC assembly source into a loadable image —
// the "traditional RISC compiler and linker" stage of the CCRP tool
// flow. The default backend is the paper's MIPS R2000; -isa selects any
// registered backend (e.g. rv32).
//
// Usage:
//
//	ccasm [-isa mips|rv32] [-o prog.img] [-l] prog.s
//
// With -l a listing (addresses, words, disassembly) is printed instead of
// writing an image.
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
	"ccrp/internal/isa"
	_ "ccrp/internal/mips"  // register backend
	_ "ccrp/internal/riscv" // register backend
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, assembles the source, and writes the image or, with
// -l, the listing to stdout. It returns the exit status: 0 on success, 2
// for a bad command line, 1 when the source cannot be read or assembled
// or the image cannot be written.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccasm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "a.img", "output image path")
	listing := fs.Bool("l", false, "print a listing instead of writing the image")
	isaName := fs.String("isa", "", "ISA backend ("+strings.Join(isa.Names(), "|")+"; default "+isa.DefaultName+")")
	version := cliutil.RegisterVersionFlag(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if cliutil.PrintVersion(stdout, "ccasm", version) {
		return 0
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: ccasm [-isa name] [-o out.img] [-l] prog.s")
		return 2
	}
	if err := assemble(stdout, fs.Arg(0), *isaName, *out, *listing); err != nil {
		fmt.Fprintln(stderr, "ccasm:", err)
		return 1
	}
	return 0
}

// assemble assembles the source at path for isaName and writes the
// listing to w, or else the image to out and a summary line to w.
func assemble(w io.Writer, path, isaName, out string, listing bool) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	prog, err := asm.AssembleFor(isaName, path, string(src))
	if err != nil {
		return err
	}
	if listing {
		printListing(w, prog)
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := prog.WriteImage(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %s text %d bytes, data %d bytes, entry %#08x\n",
		out, isa.MustLookup(prog.ISA).Name(), len(prog.Text), len(prog.Data), prog.Entry)
	return nil
}

func printListing(w io.Writer, p *asm.Program) {
	arch := isa.MustLookup(p.ISA)
	syms := map[uint32][]string{}
	for _, name := range p.SymbolsSorted() {
		addr := p.Symbols[name]
		syms[addr] = append(syms[addr], name)
	}
	for off := 0; off+4 <= len(p.Text); off += 4 {
		addr := asm.TextBase + uint32(off)
		for _, s := range syms[addr] {
			fmt.Fprintf(w, "%s:\n", s)
		}
		word := isa.Word(binary.LittleEndian.Uint32(p.Text[off:]))
		fmt.Fprintf(w, "  %08x  %08x  %s\n", addr, uint32(word), arch.Disassemble(word, addr))
	}
}
