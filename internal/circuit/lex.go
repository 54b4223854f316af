package circuit

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// The line grammar both QASM dialects share, read in one pass.
//
// Text splits into lines at '\n', and one '\r' before a line end is
// dropped. Each line is trimmed of Unicode white space; an empty line
// or one starting with '#' carries no statement. Any other line splits
// into fields at runs of Unicode white space: a directive or mnemonic,
// then its arguments. An operand list is one field of comma-separated
// q-prefixed indices (q3, q03 and q+3 all name qubit 3). A raw line
// longer than maxLineBytes fails with bufio.ErrTooLong.
//
// parse feeds the statements to a sink: the canonical emitter behind
// AppendCanonical, or the builder behind ReadQASM, ReadProgramQASM and
// Parse.

// maxLineBytes is the longest raw line the grammar accepts: what a
// 16 MB read buffer holds together with the line's newline.
const maxLineBytes = 16<<20 - 1

// lines walks text one line at a time.
type lines struct {
	text string
	pos  int
	n    int // number of the last line returned, from 1
}

// next returns the next line, trimmed, and false once the text is
// exhausted.
func (l *lines) next() (string, bool, error) {
	if l.pos >= len(l.text) {
		return "", false, nil
	}
	rest := l.text[l.pos:]
	raw := rest
	if i := strings.IndexByte(rest, '\n'); i >= 0 {
		raw = rest[:i]
		l.pos += i + 1
	} else {
		l.pos = len(l.text)
	}
	if len(raw) > maxLineBytes {
		return "", false, bufio.ErrTooLong
	}
	l.n++
	raw = strings.TrimSuffix(raw, "\r")
	return strings.TrimSpace(raw), true, nil
}

// sniff reads past the blank and comment lines at the head of text,
// leaving l at its first statement, and reports whether that statement
// opens the module-extended dialect. name is a comment on line 1, which
// names a flat circuit.
func (l *lines) sniff() (hierarchical bool, name string, err error) {
	for {
		mark := *l
		t, ok, err := l.next()
		if err != nil || !ok {
			return false, name, err
		}
		if t == "" {
			continue
		}
		if t[0] == '#' {
			if l.n == 1 {
				name = strings.TrimSpace(t[1:])
			}
			continue
		}
		*l = mark
		return strings.HasPrefix(t, "entry ") || strings.HasPrefix(t, "module "), name, nil
	}
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// maxFields is how many fields a statement can use: a module directive
// and a call line have three.
const maxFields = 3

// fieldList is a statement's first maxFields fields; n counts them all,
// saturating at maxFields+1.
type fieldList struct {
	f [maxFields]string
	n int
}

// splitFields splits a trimmed, non-empty line as strings.Fields does:
// at runs of unicode.IsSpace runes, decoding a rune only at a non-ASCII
// byte.
func splitFields(t string) fieldList {
	var fl fieldList
	inField := false
	start := 0
	for i := 0; i < len(t); {
		c, w := t[i], 1
		if c > ' ' && c < utf8.RuneSelf && inField {
			i++ // the common case: more of a field
			continue
		}
		var space bool
		if c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			var r rune
			r, w = utf8.DecodeRuneInString(t[i:])
			space = unicode.IsSpace(r)
		}
		if space == inField {
			if inField {
				fl.add(t[start:i])
				if fl.n > maxFields {
					return fl
				}
			}
			inField, start = !inField, i
		}
		i += w
	}
	if inField {
		fl.add(t[start:])
	}
	return fl
}

func (fl *fieldList) add(f string) {
	if fl.n < maxFields {
		fl.f[fl.n] = f
	}
	fl.n++
}

// appendOperands parses a comma-separated q-prefixed operand list onto
// dst.
func appendOperands(dst []int, list string, line int) ([]int, error) {
	for {
		tok, rest := list, ""
		more := false
		if i := strings.IndexByte(list, ','); i >= 0 {
			tok, rest, more = list[:i], list[i+1:], true
		}
		if !strings.HasPrefix(tok, "q") {
			return dst, fmt.Errorf("qasm line %d: operand %q missing q prefix", line, tok)
		}
		q, err := strconv.Atoi(tok[1:])
		if err != nil {
			return dst, fmt.Errorf("qasm line %d: bad operand %q", line, tok)
		}
		dst = append(dst, q)
		if !more {
			return dst, nil
		}
		list = rest
	}
}

// sink consumes the statements of one text in order. The operand
// slices it is handed are scratch, valid only during the call.
type sink interface {
	// qubits opens a flat circuit named by its line-1 comment.
	qubits(name string, n int)
	// gate is one gate line: validated against the circuit's width in
	// a flat circuit, unchecked in a module until endProgram.
	gate(op Opcode, qs []int)
	// module opens a module body; it fails on a duplicate name.
	module(name string, n int) error
	// call is one call line in the open module.
	call(callee string, args []int)
	// endProgram runs the structural checks of Program.Validate once
	// every line has been read.
	endProgram(entry string) error
}

// parse reads text in the dialect its first statement opens.
func parse(text string, s sink, operands *[]int) error {
	l := lines{text: text}
	hierarchical, name, err := l.sniff()
	if err != nil {
		return err
	}
	if hierarchical {
		return parseProgram(&l, s, operands)
	}
	return parseFlat(&l, name, s, operands)
}

// parseFlat reads the flat dialect from l; name is the line-1 comment
// already read, if any.
func parseFlat(l *lines, name string, s sink, operands *[]int) error {
	n := -1
	for {
		t, ok, err := l.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if t == "" {
			continue
		}
		if t[0] == '#' {
			if name == "" && l.n == 1 {
				name = strings.TrimSpace(t[1:])
			}
			continue
		}
		fl := splitFields(t)
		if fl.f[0] == "qubits" {
			if fl.n != 2 {
				return fmt.Errorf("qasm line %d: malformed qubits directive", l.n)
			}
			if n >= 0 {
				return fmt.Errorf("qasm line %d: duplicate qubits directive", l.n)
			}
			v, err := strconv.Atoi(fl.f[1])
			if err != nil || v < 0 {
				return fmt.Errorf("qasm line %d: bad qubit count %q", l.n, fl.f[1])
			}
			n = v
			s.qubits(name, n)
			continue
		}
		if n < 0 {
			return fmt.Errorf("qasm line %d: gate before qubits directive", l.n)
		}
		op, qs, err := gateLine(&fl, l.n, operands)
		if err != nil {
			return err
		}
		if err := (Gate{Op: op, Qubits: qs}).Validate(n); err != nil {
			return fmt.Errorf("qasm line %d: %w", l.n, err)
		}
		s.gate(op, qs)
	}
	if n < 0 {
		return fmt.Errorf("qasm: missing qubits directive")
	}
	return nil
}

// gateLine parses a gate line's mnemonic and operand list into the
// operand scratch.
func gateLine(fl *fieldList, line int, operands *[]int) (Opcode, []int, error) {
	op, err := ParseOpcode(fl.f[0])
	if err != nil {
		return Nop, nil, fmt.Errorf("qasm line %d: %w", line, err)
	}
	if fl.n > 2 {
		return Nop, nil, fmt.Errorf("qasm line %d: malformed gate (want: <op> q…,q…)", line)
	}
	qs := (*operands)[:0]
	if fl.n == 2 {
		if qs, err = appendOperands(qs, fl.f[1], line); err != nil {
			return Nop, nil, err
		}
		*operands = qs
	}
	return op, qs, nil
}

// parseProgram reads the module-extended dialect from l.
func parseProgram(l *lines, s sink, operands *[]int) error {
	entry := ""
	open := false // a module directive has been read
	for {
		t, ok, err := l.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if t == "" || t[0] == '#' {
			continue
		}
		fl := splitFields(t)
		switch fl.f[0] {
		case "entry":
			if fl.n != 2 {
				return fmt.Errorf("qasm line %d: malformed entry directive", l.n)
			}
			if entry != "" {
				return fmt.Errorf("qasm line %d: duplicate entry directive", l.n)
			}
			entry = fl.f[1]
			continue
		case "module":
			if fl.n != 3 {
				return fmt.Errorf("qasm line %d: malformed module directive", l.n)
			}
			n, err := strconv.Atoi(fl.f[2])
			if err != nil || n < 1 {
				return fmt.Errorf("qasm line %d: bad module qubit count %q", l.n, fl.f[2])
			}
			if err := s.module(fl.f[1], n); err != nil {
				return fmt.Errorf("qasm line %d: %v", l.n, err)
			}
			open = true
			continue
		case "call":
			if !open {
				return fmt.Errorf("qasm line %d: call before module directive", l.n)
			}
			if fl.n != 3 {
				return fmt.Errorf("qasm line %d: malformed call (want: call <module> q…)", l.n)
			}
			args, err := appendOperands((*operands)[:0], fl.f[2], l.n)
			if err != nil {
				return err
			}
			*operands = args
			s.call(fl.f[1], args)
			continue
		}
		if !open {
			return fmt.Errorf("qasm line %d: gate before module directive", l.n)
		}
		op, qs, err := gateLine(&fl, l.n, operands)
		if err != nil {
			return err
		}
		s.gate(op, qs)
	}
	if entry == "" {
		return fmt.Errorf("qasm: missing entry directive")
	}
	if !open {
		return fmt.Errorf("qasm: no modules")
	}
	return s.endProgram(entry)
}
