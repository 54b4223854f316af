package service

import (
	"bufio"
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"surfcomm"
	"surfcomm/internal/circuit"
	"surfcomm/internal/scerr"
)

// The QASM front end as it was before the one-pass canonicalizer: a
// bufio.Scanner parse into a Circuit or Program, then a fmt re-emission
// of it, hashed. FuzzParseQASM holds the product front end to it.

// oracleFrontEnd returns the canonical bytes of text, or the error the
// service answers with.
func oracleFrontEnd(text string) ([]byte, error) {
	if strings.TrimSpace(text) == "" {
		return nil, scerr.BadConfig("service: empty qasm")
	}
	var buf bytes.Buffer
	if oracleLooksHierarchical(text) {
		p, err := oracleReadProgram(strings.NewReader(text))
		if err != nil {
			return nil, scerr.BadConfig("service: qasm: %v", err)
		}
		oracleWriteProgram(&buf, p)
	} else {
		c, err := oracleReadCircuit(strings.NewReader(text))
		if err != nil {
			return nil, scerr.BadConfig("service: qasm: %v", err)
		}
		oracleWriteCircuit(&buf, c)
	}
	return buf.Bytes(), nil
}

// oracleRoutingKey is RoutingKey over oracleFrontEnd.
func oracleRoutingKey(req Request) (string, error) {
	canon, err := oracleFrontEnd(req.QASM)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "route/1 backend=%s d=%d window=%d pe=%g record=%t\n",
		cmp.Or(req.Backend, "braid"), req.Distance, req.Window, req.PhysicalError, req.RecordSchedule)
	if req.Policy != nil {
		fmt.Fprintf(h, "policy=%d\n", *req.Policy)
	}
	if req.Seed != nil {
		fmt.Fprintf(h, "seed=%d\n", *req.Seed)
	}
	if req.Device != nil {
		fmt.Fprintf(h, "device=%s/%g/%d\n", req.Device.Preset, req.Device.Frac, req.Device.Seed)
	}
	if len(req.Calibration) > 0 {
		fmt.Fprintf(h, "cal=%x\n", sha256.Sum256(req.Calibration))
	}
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil)), nil
}

func oracleScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return sc
}

func oracleLooksHierarchical(text string) bool {
	sc := oracleScanner(strings.NewReader(text))
	for sc.Scan() {
		t := strings.TrimSpace(sc.Text())
		if t == "" || strings.HasPrefix(t, "#") {
			continue
		}
		return strings.HasPrefix(t, "entry ") || strings.HasPrefix(t, "module ")
	}
	return false
}

func oracleReadCircuit(r io.Reader) (*circuit.Circuit, error) {
	sc := oracleScanner(r)
	c := &circuit.Circuit{NumQubits: -1}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if c.Name == "" && line == 1 {
				c.Name = strings.TrimSpace(strings.TrimPrefix(text, "#"))
			}
			continue
		}
		fields := strings.Fields(text)
		if fields[0] == "qubits" {
			if len(fields) != 2 {
				return nil, fmt.Errorf("qasm line %d: malformed qubits directive", line)
			}
			if c.NumQubits >= 0 {
				return nil, fmt.Errorf("qasm line %d: duplicate qubits directive", line)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("qasm line %d: bad qubit count %q", line, fields[1])
			}
			c.NumQubits = n
			continue
		}
		if c.NumQubits < 0 {
			return nil, fmt.Errorf("qasm line %d: gate before qubits directive", line)
		}
		op, err := circuit.ParseOpcode(fields[0])
		if err != nil {
			return nil, fmt.Errorf("qasm line %d: %w", line, err)
		}
		if len(fields) > 2 {
			return nil, fmt.Errorf("qasm line %d: malformed gate (want: <op> q…,q…)", line)
		}
		var qubits []int
		if len(fields) > 1 {
			if qubits, err = oracleOperands(fields[1], line); err != nil {
				return nil, err
			}
		}
		g := circuit.Gate{Op: op, Qubits: qubits}
		if err := g.Validate(c.NumQubits); err != nil {
			return nil, fmt.Errorf("qasm line %d: %w", line, err)
		}
		c.Gates = append(c.Gates, g)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if c.NumQubits < 0 {
		return nil, fmt.Errorf("qasm: missing qubits directive")
	}
	return c, nil
}

func oracleReadProgram(r io.Reader) (*circuit.Program, error) {
	sc := oracleScanner(r)
	p := &circuit.Program{Modules: map[string]*circuit.Module{}}
	var cur *circuit.Module
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "entry":
			if len(fields) != 2 {
				return nil, fmt.Errorf("qasm line %d: malformed entry directive", line)
			}
			if p.Entry != "" {
				return nil, fmt.Errorf("qasm line %d: duplicate entry directive", line)
			}
			p.Entry = fields[1]
			continue
		case "module":
			if len(fields) != 3 {
				return nil, fmt.Errorf("qasm line %d: malformed module directive", line)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("qasm line %d: bad module qubit count %q", line, fields[2])
			}
			cur = &circuit.Module{Name: fields[1], NumQubits: n}
			if err := p.AddModule(cur); err != nil {
				return nil, fmt.Errorf("qasm line %d: %v", line, err)
			}
			continue
		case "call":
			if cur == nil {
				return nil, fmt.Errorf("qasm line %d: call before module directive", line)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("qasm line %d: malformed call (want: call <module> q…)", line)
			}
			args, err := oracleOperands(fields[2], line)
			if err != nil {
				return nil, err
			}
			cur.Call(fields[1], args...)
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("qasm line %d: gate before module directive", line)
		}
		op, err := circuit.ParseOpcode(fields[0])
		if err != nil {
			return nil, fmt.Errorf("qasm line %d: %w", line, err)
		}
		if len(fields) > 2 {
			return nil, fmt.Errorf("qasm line %d: malformed gate (want: <op> q…,q…)", line)
		}
		var qubits []int
		if len(fields) > 1 {
			if qubits, err = oracleOperands(fields[1], line); err != nil {
				return nil, err
			}
		}
		cur.Gate(op, qubits...)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if p.Entry == "" {
		return nil, fmt.Errorf("qasm: missing entry directive")
	}
	if len(p.Modules) == 0 {
		return nil, fmt.Errorf("qasm: no modules")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func oracleOperands(s string, line int) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if !strings.HasPrefix(tok, "q") {
			return nil, fmt.Errorf("qasm line %d: operand %q missing q prefix", line, tok)
		}
		q, err := strconv.Atoi(tok[1:])
		if err != nil {
			return nil, fmt.Errorf("qasm line %d: bad operand %q", line, tok)
		}
		out = append(out, q)
	}
	return out, nil
}

func oracleGate(op circuit.Opcode, qubits []int) string {
	s := op.String()
	for i, q := range qubits {
		if i == 0 {
			s += " "
		} else {
			s += ","
		}
		s += fmt.Sprintf("q%d", q)
	}
	return s
}

func oracleWriteCircuit(w io.Writer, c *circuit.Circuit) {
	if c.Name != "" {
		fmt.Fprintf(w, "# %s\n", c.Name)
	}
	fmt.Fprintf(w, "qubits %d\n", c.NumQubits)
	for _, g := range c.Gates {
		fmt.Fprintln(w, oracleGate(g.Op, g.Qubits))
	}
}

func oracleWriteProgram(w io.Writer, p *circuit.Program) {
	fmt.Fprintf(w, "entry %s\n", p.Entry)
	names := make([]string, 0, len(p.Modules))
	for name := range p.Modules {
		if name != p.Entry {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if _, ok := p.Modules[p.Entry]; ok {
		names = append([]string{p.Entry}, names...)
	}
	for _, name := range names {
		m := p.Modules[name]
		fmt.Fprintf(w, "module %s %d\n", m.Name, m.NumQubits)
		for _, in := range m.Insts {
			if in.IsCall() {
				args := make([]string, len(in.Args))
				for i, a := range in.Args {
					args[i] = "q" + strconv.Itoa(a)
				}
				fmt.Fprintf(w, "call %s %s\n", in.Callee, strings.Join(args, ","))
				continue
			}
			fmt.Fprintln(w, oracleGate(in.Op, in.Args))
		}
	}
}

// checkAgainstOracle holds the service's front end to the oracle on
// one text: the same error text, or the same canonical bytes. It
// reports whether the text was accepted.
func checkAgainstOracle(t *testing.T, text string) bool {
	t.Helper()
	want, werr := oracleFrontEnd(text)
	got, err := appendCanonicalQASM(nil, text)
	if msg(err) != msg(werr) {
		t.Fatalf("front end error %q, oracle error %q on\n%q", msg(err), msg(werr), text)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("canonical bytes\n%s\noracle bytes\n%s\non %q", got, want, text)
	}
	src, perr := parseQASM(text)
	if msg(perr) != msg(werr) {
		t.Fatalf("builder error %q, oracle error %q on\n%q", msg(perr), msg(werr), text)
	}
	if perr == nil && emitCircuit(src.circuit)+emitProgram(src.program) != string(want) {
		t.Fatalf("builder disagrees with the oracle on %q", text)
	}
	return err == nil
}

// TestFrontEndMatchesOracle runs the differential property over texts
// that reach each check of both dialects, in the orders the structural
// checks of a program depend on, and over seeded line-level mutations
// of a flat circuit and a program.
func TestFrontEndMatchesOracle(t *testing.T) {
	texts := []string{
		"", " \r\n\t", "# only a name\n", "qubits 2\nh q0 q1\n", "qubits 2\nqubits 2\n",
		"qubits 3\nbarrier\n", "qubits 3\nbarrier q0,q1,q0\n", "qubits 3\ncnot q0,q-1\n",
		"qubits 3\nh q9223372036854775808\n", "qubits 2\nh q0,\n", "qubits 2\nh ,q0\n",
		"qubits\u00a02\nh\u2003q1\u0085\n", "qubits 2\nh\xffq1\n", "\xef\xbb\xbfqubits 1\n",
		"# a\r# b\nqubits 1\r\r\nh q0\r", "\n# not a name\nqubits 1\n", "qubits\v1\nh\fq0\n", "#\nqubits 1\n", "  #  \u00a0 x \nqubits 1\n",
		"entry\tmain\nmodule main 1\n", "module m 1\nentry m\nh q0\n", "entry m\n",
		"entry m\nmodule m 1\nmodule m 1\n", "entry m\nmodule m 0\n", "entry m\nmodule m x\n",
		"entry m\ncall m q0\n", "entry m\nmodule m 1\ncall n\n", "entry m\nmodule m 1\nqubits 1\n",
		"entry z\nmodule z 2\ncall a q0,q1\ncall b q1\nmodule b 1\nh q3\nmodule a 1\nh q0\n",
		"entry z\nmodule z 2\ncall a q0,q0\nmodule a 2\nh q0\n",
		"entry z\nmodule z 2\ncall a q0,q2\nmodule a 2\nh q0\n",
		"entry z\nmodule z 2\nh q5\ncall ghost q0\n",
		"entry z\nmodule z 2\ncall ghost q0\nh q5\n",
		"entry z\nmodule z 1\ncall a q0\nmodule a 1\ncall b q0\nmodule b 1\ncall a q0\n",
		"entry z\nmodule z 1\nh q0\nmodule a 1\ncall b q0\nmodule b 1\ncall a q0\n",
		"entry z\nmodule z 1\ncall c q0\ncall b q0\nmodule b 1\ncall z q0\nmodule c 1\ncall b q0\n",
		"entry y\nmodule z 1\nh q0\n",
	}
	for _, text := range texts {
		checkAgainstOracle(t, text)
	}

	rng := rand.New(rand.NewSource(1))
	pipeline, err := surfcomm.PipelineProgram(3)
	if err != nil {
		t.Fatal(err)
	}
	bases := []string{
		texts[len(texts)-3],
		surfcomm.ProgramQASMString(pipeline),
		"# bell\nqubits 3\nh q0\ncnot q0,q1\nbarrier q0,q1,q2\nmeasz q2\n",
	}
	tokens := []string{"q0", "q1", "q7", "h", "cnot", "call", "module", "entry", "qubits", "main",
		"pipeline", "stagea", "2", "8", "#", ",", "\u00a0", "\t", "\r", "x", "q+1", "q01"}
	accepted := 0
	const mutants = 3000
	for i := 0; i < mutants; i++ {
		lines := strings.Split(bases[i%len(bases)], "\n")
		for m := rng.Intn(3) + 1; m > 0; m-- {
			j := rng.Intn(len(lines))
			switch rng.Intn(5) {
			case 0:
				lines = append(lines[:j], lines[j+1:]...)
			case 1:
				lines = append(lines[:j+1], lines[j:]...)
			case 2:
				k := rng.Intn(len(lines))
				lines[j], lines[k] = lines[k], lines[j]
			case 3:
				fields := strings.Fields(lines[j])
				if len(fields) > 0 {
					fields[rng.Intn(len(fields))] = tokens[rng.Intn(len(tokens))]
				}
				lines[j] = strings.Join(fields, " ")
			case 4:
				lines[j] += " " + tokens[rng.Intn(len(tokens))]
			}
			if len(lines) == 0 {
				lines = []string{""}
			}
		}
		if checkAgainstOracle(t, strings.Join(lines, "\n")) {
			accepted++
		}
	}
	// Both outcomes must be well represented for the mutants to test
	// anything.
	if accepted < mutants/10 || accepted > mutants*9/10 {
		t.Errorf("%d of %d mutants accepted", accepted, mutants)
	}
	t.Logf("%d of %d mutants accepted", accepted, mutants)
}
