package circuit

import (
	"io"
	"slices"
	"strconv"
	"strings"
)

// WriteQASM serializes the circuit in the flat QASM dialect used by the
// toolchain:
//
//	# comment
//	qubits 5
//	h q0
//	cnot q0,q2
//	barrier q1,q3
//
// A comment on line 1 names the circuit; later comments and blank lines
// are ignored. One qubits directive precedes every gate line, and a
// gate line is a mnemonic and at most one operand field, its qubits
// separated by commas. The format round-trips through ReadQASM and
// exists for golden tests, debugging, and interchange with external
// visualizers.
func WriteQASM(w io.Writer, c *Circuit) error {
	_, err := w.Write(appendCircuit(nil, c))
	return err
}

// QASMString renders the circuit as a QASM string.
func QASMString(c *Circuit) string { return string(appendCircuit(nil, c)) }

// appendCircuit appends the flat dialect's text of c.
func appendCircuit(dst []byte, c *Circuit) []byte {
	if c.Name != "" {
		dst = append(dst, "# "...)
		dst = append(dst, c.Name...)
		dst = append(dst, '\n')
	}
	dst = append(dst, "qubits "...)
	dst = strconv.AppendInt(dst, int64(c.NumQubits), 10)
	dst = append(dst, '\n')
	for _, g := range c.Gates {
		dst = append(appendGate(dst, g.Op, g.Qubits), '\n')
	}
	return dst
}

// ReadQASM parses the flat QASM dialect produced by WriteQASM (see
// there for its grammar), rejecting a second qubits directive, a gate
// before the first, and a gate line with a field after its operands.
// Every gate is validated against the circuit's width.
func ReadQASM(r io.Reader) (*Circuit, error) {
	text, err := readText(r)
	if err != nil {
		return nil, err
	}
	var b builder
	l := lines{text: text}
	if err := parseFlat(&l, "", &b, &b.operands); err != nil {
		return nil, err
	}
	return b.c, nil
}

// Parse parses text in the dialect LooksHierarchicalQASM reports:
// exactly one of the returned circuit (flat dialect) and program
// (module-extended dialect) is non-nil on success.
func Parse(text string) (*Circuit, *Program, error) {
	var b builder
	if err := parse(text, &b, &b.operands); err != nil {
		return nil, nil, err
	}
	return b.c, b.p, nil
}

// readText reads all of r.
func readText(r io.Reader) (string, error) {
	var sb strings.Builder
	_, err := io.Copy(&sb, r)
	return sb.String(), err
}

// builder assembles the Circuit or Program a text's statements
// describe. Names are copied out of the text, so a built circuit never
// pins the request it came from.
type builder struct {
	c        *Circuit
	p        *Program
	cur      *Module
	operands []int
}

func (b *builder) qubits(name string, n int) {
	b.c = &Circuit{Name: strings.Clone(name), NumQubits: n}
}

func (b *builder) gate(op Opcode, qs []int) {
	if b.cur != nil {
		b.cur.Insts = append(b.cur.Insts, Inst{Op: op, Args: slices.Clone(qs)})
		return
	}
	b.c.Gates = append(b.c.Gates, Gate{Op: op, Qubits: slices.Clone(qs)})
}

func (b *builder) module(name string, n int) error {
	if b.p == nil {
		b.p = &Program{Modules: map[string]*Module{}}
	}
	m := &Module{Name: strings.Clone(name), NumQubits: n}
	if err := b.p.AddModule(m); err != nil {
		return err
	}
	b.cur = m
	return nil
}

func (b *builder) call(callee string, args []int) {
	b.cur.Insts = append(b.cur.Insts, Inst{Callee: strings.Clone(callee), Args: slices.Clone(args)})
}

func (b *builder) endProgram(entry string) error {
	b.p.Entry = strings.Clone(entry)
	return b.p.Validate()
}
