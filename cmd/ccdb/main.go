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
	"flag"
	"fmt"
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
	isaName := flag.String("isa", "", "ISA backend for .s input ("+strings.Join(isa.Names(), "|")+"; default "+isa.DefaultName+")")
	version := cliutil.RegisterVersionFlag(flag.CommandLine)
	flag.Parse()
	if cliutil.PrintVersion(os.Stdout, "ccdb", version) {
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ccdb [-isa name] (prog.s | prog.img)")
		os.Exit(2)
	}
	prog := load(flag.Arg(0), *isaName)
	m := sim.New(prog, sim.Config{Stdout: os.Stdout, CollectTrace: false})
	dbg := &debugger{m: m, prog: prog, arch: isa.MustLookup(prog.ISA), breaks: map[uint32]bool{}}
	dbg.repl(os.Stdin)
}

func load(path, isaName string) *asm.Program {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	if strings.HasSuffix(path, ".s") || strings.HasSuffix(path, ".asm") {
		p, err := asm.AssembleFor(isaName, path, string(raw))
		if err != nil {
			fatal(err)
		}
		return p
	}
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	p, err := asm.ReadImage(f)
	if err != nil {
		fatal(err)
	}
	return p
}

type debugger struct {
	m      *sim.Machine
	prog   *asm.Program
	arch   isa.ISA
	breaks map[uint32]bool
}

func (d *debugger) repl(in *os.File) {
	fmt.Printf("ccdb: %s, %d text bytes, entry %#08x. Type 'q' to quit.\n",
		d.prog.Name, len(d.prog.Text), d.prog.Entry)
	d.showPC()
	sc := bufio.NewScanner(in)
	fmt.Print("(ccdb) ")
	for sc.Scan() {
		line := strings.Fields(strings.TrimSpace(sc.Text()))
		if len(line) == 0 {
			fmt.Print("(ccdb) ")
			continue
		}
		switch line[0] {
		case "q", "quit":
			return
		case "s", "step":
			n := 1
			if len(line) > 1 {
				n, _ = strconv.Atoi(line[1])
			}
			d.stepN(n)
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
			fmt.Printf("instructions=%d stalls=%d loads=%d stores=%d done=%v\n",
				r.Instructions, r.Stalls, r.Loads, r.Stores, d.m.Done())
		default:
			fmt.Println("commands: s [n], c, b [addr], r, f, d [addr], x addr [n], i, q")
		}
		fmt.Print("(ccdb) ")
	}
}

func (d *debugger) stepN(n int) {
	for i := 0; i < n && !d.m.Done(); i++ {
		if err := d.m.Step(); err != nil {
			fmt.Printf("fault: %v\n", err)
			return
		}
	}
	d.showPC()
}

func (d *debugger) cont() {
	for !d.m.Done() {
		if err := d.m.Step(); err != nil {
			fmt.Printf("fault: %v\n", err)
			return
		}
		if d.breaks[d.m.PC()] {
			fmt.Printf("breakpoint at %#08x after %d instructions\n", d.m.PC(), d.m.Instructions())
			break
		}
	}
	d.showPC()
}

func (d *debugger) breakCmd(args []string) {
	if len(args) == 0 {
		if len(d.breaks) == 0 {
			fmt.Println("no breakpoints")
		}
		for a := range d.breaks {
			fmt.Printf("  %#08x\n", a)
		}
		return
	}
	addr, err := parseAddr(args[0], d.prog)
	if err != nil {
		fmt.Println(err)
		return
	}
	if d.breaks[addr] {
		delete(d.breaks, addr)
		fmt.Printf("cleared %#08x\n", addr)
	} else {
		d.breaks[addr] = true
		fmt.Printf("set %#08x\n", addr)
	}
}

func (d *debugger) showPC() {
	if d.m.Done() {
		fmt.Printf("program exited after %d instructions\n", d.m.Instructions())
		return
	}
	pc := d.m.PC()
	w, err := d.m.ReadWord(pc)
	if err != nil {
		fmt.Printf("pc=%#08x <unreadable>\n", pc)
		return
	}
	fmt.Printf("%08x  %08x  %s\n", pc, w, d.arch.Disassemble(isa.Word(w), pc))
}

func (d *debugger) regs() {
	for i := 0; i < 32; i += 4 {
		for j := i; j < i+4; j++ {
			fmt.Printf("%-5s %08x  ", d.arch.RegName(uint8(j)), d.m.Reg(uint8(j)))
		}
		fmt.Println()
	}
	fmt.Printf("hi    %08x  lo    %08x  pc    %08x\n", d.m.HI(), d.m.LO(), d.m.PC())
}

func (d *debugger) fregs() {
	any := false
	for i := 0; i < 32; i += 2 {
		bits := uint64(d.m.FPR(uint8(i+1)))<<32 | uint64(d.m.FPR(uint8(i)))
		if bits == 0 {
			continue
		}
		any = true
		fmt.Printf("%-5s %016x  %g\n", d.arch.FPRegName(uint8(i)), bits, math.Float64frombits(bits))
	}
	if !any {
		fmt.Println("all FP registers zero")
	}
}

func (d *debugger) disasm(args []string) {
	addr := d.m.PC()
	if len(args) > 0 {
		a, err := parseAddr(args[0], d.prog)
		if err != nil {
			fmt.Println(err)
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
		fmt.Printf("%s %08x  %08x  %s\n", marker, a, w, d.arch.Disassemble(isa.Word(w), a))
	}
}

func (d *debugger) examine(args []string) {
	if len(args) == 0 {
		fmt.Println("usage: x addr [bytes]")
		return
	}
	addr, err := parseAddr(args[0], d.prog)
	if err != nil {
		fmt.Println(err)
		return
	}
	n := 64
	if len(args) > 1 {
		n, _ = strconv.Atoi(args[1])
	}
	for off := 0; off < n; off += 16 {
		fmt.Printf("%08x ", addr+uint32(off))
		var ascii [16]byte
		for j := 0; j < 16 && off+j < n; j++ {
			b, err := d.m.PeekByte(addr + uint32(off+j))
			if err != nil {
				fmt.Println()
				return
			}
			fmt.Printf(" %02x", b)
			if b >= 0x20 && b < 0x7F {
				ascii[j] = b
			} else {
				ascii[j] = '.'
			}
		}
		fmt.Printf("  |%s|\n", strings.TrimRight(string(ascii[:]), "\x00"))
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccdb:", err)
	os.Exit(1)
}
