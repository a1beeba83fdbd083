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
// decompressed text bytes to a file.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strings"

	"ccrp/internal/asm"
	"ccrp/internal/cliutil"
	"ccrp/internal/core"
	"ccrp/internal/isa"
	_ "ccrp/internal/mips"  // register backend
	_ "ccrp/internal/riscv" // register backend
)

func main() {
	romMode := flag.Bool("rom", false, "input is a compressed CROM image (ccpack output)")
	rawOut := flag.String("raw", "", "with -rom, also write the decompressed text bytes to this file")
	isaName := flag.String("isa", "", "ISA backend for -rom text ("+strings.Join(isa.Names(), "|")+"; default "+isa.DefaultName+")")
	version := cliutil.RegisterVersionFlag(flag.CommandLine)
	flag.Parse()
	if cliutil.PrintVersion(os.Stdout, "ccdis", version) {
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ccdis [-rom [-isa name] [-raw out.bin]] prog.img")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()

	var text []byte
	arch, err := isa.Lookup(*isaName)
	if err != nil {
		fatal(err)
	}
	if *romMode {
		rom, rerr := core.ReadROMFile(f)
		if rerr != nil {
			fatal(rerr)
		}
		text = rom.Text()
		if *rawOut != "" {
			if err := os.WriteFile(*rawOut, text, 0o644); err != nil {
				fatal(err)
			}
		}
	} else {
		prog, rerr := asm.ReadImage(f)
		if rerr != nil {
			fatal(rerr)
		}
		text = prog.Text
		if *isaName == "" {
			arch = isa.MustLookup(prog.ISA)
		}
	}
	for off := 0; off+4 <= len(text); off += 4 {
		addr := asm.TextBase + uint32(off)
		w := isa.Word(binary.LittleEndian.Uint32(text[off:]))
		fmt.Printf("%08x  %08x  %s\n", addr, uint32(w), arch.Disassemble(w, addr))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccdis:", err)
	os.Exit(1)
}
