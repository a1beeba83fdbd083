package asm

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"ccrp/internal/isa"
)

const (
	secText = 0
	secData = 1
)

// stmt is one statement pass 2 must emit: an instruction, or a
// directive with bytes. Statements are kept by value in one slice, and
// their operands are substrings of the source held in one shared slice,
// so a statement allocates nothing of its own.
type stmt struct {
	op           string // lowercase mnemonic or directive (leading '.')
	argLo, argHi int32  // operands: assembler.args[argLo:argHi]
	addr, size   uint32
	line         int
	section      int
}

// Assemble assembles source for the default ISA backend into a loadable
// Program. name is used only for diagnostics and Program.Name.
func Assemble(name, source string) (*Program, error) {
	return AssembleFor("", name, source)
}

// AssembleFor assembles source for the named ISA backend (empty selects
// the default). The backend must implement isa.AsmBackend; the front end
// owns sections, labels, directives, and expressions, and delegates
// instruction sizing and encoding to the backend.
func AssembleFor(isaName, name, source string) (*Program, error) {
	arch, err := isa.Lookup(isaName)
	if err != nil {
		return nil, err
	}
	be, ok := arch.(isa.AsmBackend)
	if !ok {
		return nil, fmt.Errorf("asm: ISA %q has no assembler backend", arch.Name())
	}
	a := &assembler{syms: make(symtab), be: be, wb: arch.WordBytes()}
	textEnd, dataEnd, err := a.pass1(source)
	if err != nil {
		return nil, err
	}
	p := &Program{
		Name:    name,
		ISA:     arch.Name(),
		Text:    sized(textEnd - TextBase),
		Data:    sized(dataEnd - DataBase),
		Symbols: map[string]uint32(a.syms),
	}
	if err := a.pass2(p); err != nil {
		return nil, err
	}
	if e, ok := a.syms["__start"]; ok {
		p.Entry = e
	} else {
		p.Entry = TextBase
	}
	return p, nil
}

// sized returns an empty buffer with room for n bytes, or nil for none.
func sized(n uint32) []byte {
	if n == 0 {
		return nil
	}
	return make([]byte, 0, n)
}

type assembler struct {
	syms  symtab
	be    isa.AsmBackend
	wb    int
	stmts []stmt
	args  []string
}

// symEval evaluates an operand expression against the symbol table. In
// pass 1 the table is only partially built, so forward references fail —
// which is what forces li operands to be constants or already-defined
// .equ values.
func (a *assembler) symEval(s string) (uint32, error) {
	return evalExpr(s, a.syms)
}

// stripComment removes a '#' comment, respecting string and char literals.
func stripComment(line string) string {
	if strings.IndexByte(line, '#') < 0 {
		return line
	}
	inStr, inChar, esc := false, false, false
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case esc:
			esc = false
		case c == '\\' && (inStr || inChar):
			esc = true
		case c == '"' && !inChar:
			inStr = !inStr
		case c == '\'' && !inStr:
			inChar = !inChar
		case c == '#' && !inStr && !inChar:
			return line[:i]
		}
	}
	return line
}

// labelEnd returns the index of a leading "ident:" colon, or -1.
func labelEnd(line string) int {
	if line == "" || !isIdentStart(line[0]) {
		return -1
	}
	i := 0
	for i < len(line) && isIdentChar(line[i]) {
		i++
	}
	if i < len(line) && line[i] == ':' {
		return i
	}
	return -1
}

// appendOperands appends the operands of s, split on commas outside
// quotes and parentheses, to dst.
func appendOperands(dst []string, s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return dst
	}
	depth := 0
	inStr, inChar, esc := false, false, false
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case esc:
			esc = false
		case c == '\\' && (inStr || inChar):
			esc = true
		case c == '"' && !inChar:
			inStr = !inStr
		case c == '\'' && !inStr:
			inChar = !inChar
		case inStr || inChar:
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == ',' && depth == 0:
			dst = append(dst, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	return append(dst, strings.TrimSpace(s[start:]))
}

// pass1 walks the source once, a line at a time: it strips comments,
// binds labels and .equ names, sizes every instruction and directive,
// and keeps the statements pass 2 must emit. It returns each section's
// end address. The section cursors are 64-bit so that no .space can wrap
// them past the checks at the end.
func (a *assembler) pass1(src string) (textEnd, dataEnd uint32, err error) {
	// Every statement holds a line and every operand but the first
	// follows a comma, so these bound what the walk appends.
	lines := strings.Count(src, "\n") + 1
	a.stmts = make([]stmt, 0, lines)
	a.args = make([]string, 0, lines+strings.Count(src, ","))
	text, data := uint64(TextBase), uint64(DataBase)
	section := secText
	eval := a.symEval
	for lineNo := 1; src != ""; lineNo++ {
		var line string
		line, src, _ = strings.Cut(src, "\n")
		line = strings.TrimSpace(stripComment(line))
		cur := &text
		if section == secData {
			cur = &data
		}
		for {
			i := labelEnd(line)
			if i < 0 {
				break
			}
			l := line[:i]
			if _, dup := a.syms[l]; dup {
				return 0, 0, errf(lineNo, "duplicate symbol %q", l)
			}
			a.syms[l] = uint32(*cur)
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		op, rest := line, ""
		if i := strings.IndexAny(line, " \t"); i >= 0 {
			op, rest = line[:i], line[i+1:]
		}
		st := stmt{op: strings.ToLower(op), line: lineNo, section: section, addr: uint32(*cur)}
		st.argLo = int32(len(a.args))
		a.args = appendOperands(a.args, rest)
		st.argHi = int32(len(a.args))
		args := a.args[st.argLo:st.argHi]
		if strings.HasPrefix(st.op, ".") {
			size, newSec, err := a.directiveSize(&st, args, section)
			if err != nil {
				return 0, 0, err
			}
			if newSec != section {
				section = newSec
				continue
			}
			// Labels on a directive line bind before the directive's data.
			st.size = uint32(size)
			*cur += uint64(size)
			if size > 0 {
				a.stmts = append(a.stmts, st)
			}
			continue
		}
		if section != secText {
			return 0, 0, errf(lineNo, "instruction %q outside .text", st.op)
		}
		if text%uint64(a.wb) != 0 {
			return 0, 0, errf(lineNo, "instruction %q at %#x, inside a %d-byte word", st.op, text, a.wb)
		}
		size, err := a.be.InstSize(st.op, args, eval)
		if err != nil {
			return 0, 0, errf(lineNo, "%v", err)
		}
		st.size = uint32(size)
		*cur += uint64(size)
		a.stmts = append(a.stmts, st)
	}
	if text > uint64(DataBase) {
		return 0, 0, errf(0, "text section too large: ends at %#x, data begins at %#x", text, DataBase)
	}
	if data > uint64(StackTop) {
		return 0, 0, errf(0, "data section too large: ends at %#x", data)
	}
	if text%uint64(a.wb) != 0 {
		return 0, 0, errf(0, "text section ends at %#x, inside a %d-byte word", text, a.wb)
	}
	return uint32(text), uint32(data), nil
}

// pass2 encodes the kept statements into p's text and data, reusing one
// word buffer for every instruction.
func (a *assembler) pass2(p *Program) error {
	eval := a.symEval
	var words []isa.Word
	for i := range a.stmts {
		st := &a.stmts[i]
		args := a.args[st.argLo:st.argHi]
		if strings.HasPrefix(st.op, ".") {
			if err := a.emitDirective(p, st, args); err != nil {
				return err
			}
			continue
		}
		var err error
		words, err = a.be.EncodeInst(words[:0], st.op, args, st.addr, eval)
		if err != nil {
			return errf(st.line, "%v", err)
		}
		if len(words)*a.wb != int(st.size) {
			return errf(st.line, "internal: %q sized %d bytes in pass 1 but emitted %d",
				st.op, st.size, len(words)*a.wb)
		}
		for _, w := range words {
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], uint32(w))
			p.Text = append(p.Text, b[:a.wb]...)
		}
	}
	return nil
}

// directiveSize computes a directive's byte size during pass 1 (and
// handles .equ / section switches, which take effect immediately).
func (a *assembler) directiveSize(st *stmt, args []string, section int) (size, newSection int, err error) {
	switch st.op {
	case ".text":
		return 0, secText, nil
	case ".data":
		return 0, secData, nil
	case ".globl", ".global", ".ent", ".end", ".set", ".file", ".frame":
		return 0, section, nil
	case ".equ":
		if len(args) != 2 {
			return 0, section, errf(st.line, ".equ needs name, value")
		}
		v, err := evalExpr(args[1], a.syms)
		if err != nil {
			return 0, section, errf(st.line, ".equ %s: %v", args[0], err)
		}
		name := args[0]
		if _, dup := a.syms[name]; dup {
			return 0, section, errf(st.line, "duplicate symbol %q", name)
		}
		a.syms[name] = v
		return 0, section, nil
	case ".align":
		if len(args) != 1 {
			return 0, section, errf(st.line, ".align needs one argument")
		}
		n, err := strconv.Atoi(args[0])
		if err != nil || n < 0 || n > 16 {
			return 0, section, errf(st.line, "bad .align %q", args[0])
		}
		al := uint32(1) << n
		pad := int((al - st.addr%al) % al)
		return pad, section, nil
	case ".space":
		if len(args) != 1 {
			return 0, section, errf(st.line, ".space needs one argument")
		}
		n, err := evalExpr(args[0], a.syms)
		if err != nil {
			return 0, section, errf(st.line, ".space: %v", err)
		}
		return int(n), section, nil
	case ".byte":
		return len(args), section, nil
	case ".half":
		return 2 * len(args), section, nil
	case ".word":
		return 4 * len(args), section, nil
	case ".float":
		return 4 * len(args), section, nil
	case ".double":
		return 8 * len(args), section, nil
	case ".ascii", ".asciiz":
		total := 0
		for _, arg := range args {
			s, err := unquote(arg)
			if err != nil {
				return 0, section, errf(st.line, "%v", err)
			}
			total += len(s)
			if st.op == ".asciiz" {
				total++
			}
		}
		return total, section, nil
	}
	return 0, section, errf(st.line, "unknown directive %q", st.op)
}

// emitDirective appends a data-bearing directive's bytes to its section
// during pass 2.
func (a *assembler) emitDirective(p *Program, st *stmt, args []string) error {
	out := &p.Data
	if st.section == secText {
		out = &p.Text
	}
	b := *out
	start := len(b)
	var err error
	switch st.op {
	case ".align", ".space":
		b = append(b, make([]byte, st.size)...)
	case ".byte":
		b, err = a.appendInts(b, st, args, 1)
	case ".half":
		b, err = a.appendInts(b, st, args, 2)
	case ".word":
		b, err = a.appendInts(b, st, args, 4)
	case ".float":
		for _, arg := range args {
			f, err := strconv.ParseFloat(strings.TrimSpace(arg), 32)
			if err != nil {
				return errf(st.line, ".float: %v", err)
			}
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(f)))
		}
	case ".double":
		for _, arg := range args {
			f, err := strconv.ParseFloat(strings.TrimSpace(arg), 64)
			if err != nil {
				return errf(st.line, ".double: %v", err)
			}
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	case ".ascii", ".asciiz":
		for _, arg := range args {
			s, err := unquote(arg)
			if err != nil {
				return errf(st.line, "%v", err)
			}
			b = append(b, s...)
			if st.op == ".asciiz" {
				b = append(b, 0)
			}
		}
	}
	if err != nil {
		return err
	}
	if len(b)-start != int(st.size) {
		return errf(st.line, "internal: directive %s sized %d, emitted %d", st.op, st.size, len(b)-start)
	}
	*out = b
	return nil
}

// appendInts appends each operand's value, width bytes little-endian.
func (a *assembler) appendInts(b []byte, st *stmt, args []string, width int) ([]byte, error) {
	for _, arg := range args {
		v, err := evalExpr(arg, a.syms)
		if err != nil {
			return b, errf(st.line, "%s: %v", st.op, err)
		}
		var w [4]byte
		binary.LittleEndian.PutUint32(w[:], v)
		b = append(b, w[:width]...)
	}
	return b, nil
}

// unquote interprets a double-quoted string literal with Go-style escapes.
func unquote(s string) (string, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return "", fmt.Errorf("expected quoted string, got %q", s)
	}
	body := s[1 : len(s)-1]
	var b strings.Builder
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(body) {
			return "", fmt.Errorf("dangling escape in %q", s)
		}
		switch body[i] {
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		case 'r':
			b.WriteByte('\r')
		case '0':
			b.WriteByte(0)
		case '\\':
			b.WriteByte('\\')
		case '"':
			b.WriteByte('"')
		default:
			return "", fmt.Errorf("unknown escape \\%c in %q", body[i], s)
		}
	}
	return b.String(), nil
}
