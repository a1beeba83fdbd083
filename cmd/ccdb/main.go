// Command ccdb is a small interactive debugger on the functional
// simulator: single-stepping, breakpoints, register and memory
// inspection, and inline disassembly. Images carry their ISA name;
// assembling a source file uses -isa (default: the MIPS backend).
//
// Usage:
//
//	ccdb [-isa mips|rv32] [-version] (prog.s | prog.img)
//
// Commands:
//
//	s [n]      step one (or n) instructions
//	c          continue to exit or breakpoint
//	b [addr]   toggle a breakpoint (hex); no addr lists them
//	r          print the general registers, HI/LO, and PC
//	f          print the FP registers that are nonzero
//	d [addr]   disassemble 8 words (default: at PC)
//	x addr [n] dump n bytes of memory (default 64)
//	i          print run counters (instructions, stalls, loads, stores)
//	q          quit
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"ccrp/internal/asm"
	"ccrp/internal/cliutil"
	"ccrp/internal/isa"
	_ "ccrp/internal/mips"  // register backend
	_ "ccrp/internal/riscv" // register backend
	"ccrp/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run parses args, loads the program and reads debugger commands from
// stdin until q or the end of input; the session and the program's own
// console output go to stdout. It returns the exit status: 0 on success,
// 2 for a bad command line, 1 when the program cannot be loaded.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccdb", flag.ContinueOnError)
	fs.SetOutput(stderr)
	isaName := fs.String("isa", "", "ISA backend for .s input ("+strings.Join(isa.Names(), "|")+"; default "+isa.DefaultName+")")
	version := cliutil.RegisterVersionFlag(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if cliutil.PrintVersion(stdout, "ccdb", version) {
		return 0
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: ccdb [-isa name] (prog.s | prog.img)")
		return 2
	}
	prog, err := cliutil.LoadProgram(fs.Arg(0), *isaName)
	if err != nil {
		fmt.Fprintln(stderr, "ccdb:", err)
		return 1
	}
	m := sim.New(prog, sim.Config{Stdout: stdout, CollectTrace: false})
	dbg := &debugger{m: m, prog: prog, arch: isa.MustLookup(prog.ISA), breaks: map[uint32]bool{}, out: stdout}
	dbg.repl(stdin)
	return 0
}

type debugger struct {
	m      *sim.Machine
	prog   *asm.Program
	arch   isa.ISA
	breaks map[uint32]bool
	out    io.Writer
}

func (d *debugger) repl(in io.Reader) {
	fmt.Fprintf(d.out, "ccdb: %s, %d text bytes, entry %#08x. Type 'q' to quit.\n",
		d.prog.Name, len(d.prog.Text), d.prog.Entry)
	d.showPC()
	sc := bufio.NewScanner(in)
	fmt.Fprint(d.out, "(ccdb) ")
	for sc.Scan() {
		line := strings.Fields(strings.TrimSpace(sc.Text()))
		if len(line) == 0 {
			fmt.Fprint(d.out, "(ccdb) ")
			continue
		}
		switch line[0] {
		case "q", "quit":
			return
		case "s", "step":
			d.step(line[1:])
		case "c", "continue":
			d.cont()
		case "b", "break":
			d.breakCmd(line[1:])
		case "r", "regs":
			d.regs()
		case "f", "fregs":
			d.fregs()
		case "d", "disasm":
			d.disasm(line[1:])
		case "x", "examine":
			d.examine(line[1:])
		case "i", "info":
			r := d.m.Snapshot()
			fmt.Fprintf(d.out, "instructions=%d stalls=%d loads=%d stores=%d done=%v\n",
				r.Instructions, r.Stalls, r.Loads, r.Stores, d.m.Done())
		default:
			fmt.Fprintln(d.out, "commands: s [n], c, b [addr], r, f, d [addr], x addr [n], i, q")
		}
		fmt.Fprint(d.out, "(ccdb) ")
	}
}

func (d *debugger) step(args []string) {
	n := 1
	if len(args) > 0 {
		var err error
		if n, err = parseCount(args[0]); err != nil {
			fmt.Fprintln(d.out, err)
			return
		}
	}
	for i := 0; i < n && !d.m.Done(); i++ {
		if err := d.m.Step(); err != nil {
			fmt.Fprintf(d.out, "fault: %v\n", err)
			return
		}
	}
	d.showPC()
}

func (d *debugger) cont() {
	for !d.m.Done() {
		if err := d.m.Step(); err != nil {
			fmt.Fprintf(d.out, "fault: %v\n", err)
			return
		}
		if d.breaks[d.m.PC()] {
			fmt.Fprintf(d.out, "breakpoint at %#08x after %d instructions\n", d.m.PC(), d.m.Instructions())
			break
		}
	}
	d.showPC()
}

func (d *debugger) breakCmd(args []string) {
	if len(args) == 0 {
		if len(d.breaks) == 0 {
			fmt.Fprintln(d.out, "no breakpoints")
		}
		for a := range d.breaks {
			fmt.Fprintf(d.out, "  %#08x\n", a)
		}
		return
	}
	addr, err := parseAddr(args[0], d.prog)
	if err != nil {
		fmt.Fprintln(d.out, err)
		return
	}
	if d.breaks[addr] {
		delete(d.breaks, addr)
		fmt.Fprintf(d.out, "cleared %#08x\n", addr)
	} else {
		d.breaks[addr] = true
		fmt.Fprintf(d.out, "set %#08x\n", addr)
	}
}

func (d *debugger) showPC() {
	if d.m.Done() {
		fmt.Fprintf(d.out, "program exited after %d instructions\n", d.m.Instructions())
		return
	}
	pc := d.m.PC()
	w, err := d.m.ReadWord(pc)
	if err != nil {
		fmt.Fprintf(d.out, "pc=%#08x <unreadable>\n", pc)
		return
	}
	fmt.Fprintf(d.out, "%08x  %08x  %s\n", pc, w, d.arch.Disassemble(isa.Word(w), pc))
}

func (d *debugger) regs() {
	for i := 0; i < 32; i += 4 {
		for j := i; j < i+4; j++ {
			fmt.Fprintf(d.out, "%-5s %08x  ", d.arch.RegName(uint8(j)), d.m.Reg(uint8(j)))
		}
		fmt.Fprintln(d.out)
	}
	fmt.Fprintf(d.out, "hi    %08x  lo    %08x  pc    %08x\n", d.m.HI(), d.m.LO(), d.m.PC())
}

func (d *debugger) fregs() {
	any := false
	for i := 0; i < 32; i += 2 {
		bits := uint64(d.m.FPR(uint8(i+1)))<<32 | uint64(d.m.FPR(uint8(i)))
		if bits == 0 {
			continue
		}
		any = true
		fmt.Fprintf(d.out, "%-5s %016x  %g\n", d.arch.FPRegName(uint8(i)), bits, math.Float64frombits(bits))
	}
	if !any {
		fmt.Fprintln(d.out, "all FP registers zero")
	}
}

func (d *debugger) disasm(args []string) {
	addr := d.m.PC()
	if len(args) > 0 {
		a, err := parseAddr(args[0], d.prog)
		if err != nil {
			fmt.Fprintln(d.out, err)
			return
		}
		addr = a
	}
	for i := 0; i < 8; i++ {
		a := addr + uint32(i*4)
		w, err := d.m.ReadWord(a)
		if err != nil {
			return
		}
		marker := "  "
		if a == d.m.PC() {
			marker = "=>"
		}
		fmt.Fprintf(d.out, "%s %08x  %08x  %s\n", marker, a, w, d.arch.Disassemble(isa.Word(w), a))
	}
}

func (d *debugger) examine(args []string) {
	if len(args) == 0 {
		fmt.Fprintln(d.out, "usage: x addr [bytes]")
		return
	}
	addr, err := parseAddr(args[0], d.prog)
	if err != nil {
		fmt.Fprintln(d.out, err)
		return
	}
	n := 64
	if len(args) > 1 {
		if n, err = parseCount(args[1]); err != nil {
			fmt.Fprintln(d.out, err)
			return
		}
	}
	for off := 0; off < n; off += 16 {
		fmt.Fprintf(d.out, "%08x ", addr+uint32(off))
		var ascii [16]byte
		for j := 0; j < 16 && off+j < n; j++ {
			b, err := d.m.PeekByte(addr + uint32(off+j))
			if err != nil {
				fmt.Fprintln(d.out)
				return
			}
			fmt.Fprintf(d.out, " %02x", b)
			if b >= 0x20 && b < 0x7F {
				ascii[j] = b
			} else {
				ascii[j] = '.'
			}
		}
		fmt.Fprintf(d.out, "  |%s|\n", strings.TrimRight(string(ascii[:]), "\x00"))
	}
}

// parseAddr accepts hex (with or without 0x) or a program symbol.
func parseAddr(s string, p *asm.Program) (uint32, error) {
	if v, ok := p.Symbols[s]; ok {
		return v, nil
	}
	v, err := strconv.ParseUint(strings.TrimPrefix(s, "0x"), 16, 32)
	if err != nil {
		return 0, fmt.Errorf("bad address %q (hex or symbol)", s)
	}
	return uint32(v), nil
}

// parseCount accepts a positive decimal count.
func parseCount(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad count %q (a positive decimal integer)", s)
	}
	return n, nil
}
