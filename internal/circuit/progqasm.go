package circuit

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteProgramQASM serializes a hierarchical program in the module-
// extended QASM dialect:
//
//	# comment
//	entry main
//	module main 4
//	h q0
//	call sub q0,q1
//	module sub 2
//	cnot q0,q1
//
// An `entry` directive names the entry module; each `module` directive
// opens a module body that runs until the next directive or EOF. Gate
// lines use the flat dialect; `call <module> q…` lines bind the
// caller's qubits positionally to the callee's formals.
//
// Emission is canonical: the entry module first, the remaining modules
// sorted by name. Two programs with equal structure serialize to equal
// bytes, which is what the per-module digest cache and the service's
// cache keys rely on.
func WriteProgramQASM(w io.Writer, p *Program) error {
	if p == nil {
		return fmt.Errorf("qasm: nil program")
	}
	_, err := w.Write(appendProgram(nil, p))
	return err
}

// appendProgram appends the canonical text of p.
func appendProgram(dst []byte, p *Program) []byte {
	dst = append(dst, "entry "...)
	dst = append(dst, p.Entry...)
	dst = append(dst, '\n')
	for _, name := range p.moduleOrder() {
		dst = appendModule(dst, p.Modules[name])
	}
	return dst
}

// moduleOrder returns the canonical emission order: entry first, then
// the remaining modules sorted by name.
func (p *Program) moduleOrder() []string {
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
	return names
}

// appendModule appends one module body in canonical form.
func appendModule(dst []byte, m *Module) []byte {
	dst = appendModuleHeader(dst, m.Name, m.NumQubits)
	for _, in := range m.Insts {
		if in.IsCall() {
			dst = appendCall(dst, in.Callee, in.Args)
		} else {
			dst = appendGate(dst, in.Op, in.Args)
		}
		dst = append(dst, '\n')
	}
	return dst
}

// ProgramQASMString renders the program as a canonical QASM string.
func ProgramQASMString(p *Program) string {
	var sb strings.Builder
	if err := WriteProgramQASM(&sb, p); err != nil {
		// strings.Builder writes cannot fail; a nil program is a caller
		// bug surfaced loudly.
		panic(err)
	}
	return sb.String()
}

// ModuleQASMString renders one module body in the canonical per-module
// form WriteProgramQASM emits — the text the module content digest
// covers.
func ModuleQASMString(m *Module) string { return string(appendModule(nil, m)) }

// LooksHierarchicalQASM reports whether the text is in the module-
// extended dialect (its first line that is neither blank nor a comment
// is an `entry` or `module` directive), so services can route flat and
// hierarchical requests to the right parser without trying both.
func LooksHierarchicalQASM(text string) bool {
	l := lines{text: text}
	hierarchical, _, err := l.sniff()
	return err == nil && hierarchical
}

// ReadProgramQASM parses the module-extended QASM dialect produced by
// WriteProgramQASM. It takes one entry directive anywhere in the text;
// gate and call lines belong to the module directive above them, and a
// gate line is a mnemonic and at most one operand field, as in the flat
// dialect. The program is structurally validated (entry exists, calls
// resolve, arities match, no recursion) before being returned.
func ReadProgramQASM(r io.Reader) (*Program, error) {
	text, err := readText(r)
	if err != nil {
		return nil, err
	}
	var b builder
	l := lines{text: text}
	if err := parseProgram(&l, &b, &b.operands); err != nil {
		return nil, err
	}
	return b.p, nil
}

// Clone returns a deep copy of the program: mutating the copy's modules
// or instructions never aliases the original. It is how callers derive
// edited variants (the incremental-compilation workflows mutate one
// module of a cloned program and recompile).
func (p *Program) Clone() *Program {
	cp := &Program{Modules: make(map[string]*Module, len(p.Modules)), Entry: p.Entry}
	for name, m := range p.Modules {
		cp.Modules[name] = m.Clone()
	}
	return cp
}

// Clone returns a deep copy of the module.
func (m *Module) Clone() *Module {
	cp := &Module{Name: m.Name, NumQubits: m.NumQubits, Insts: make([]Inst, len(m.Insts))}
	for i, in := range m.Insts {
		cp.Insts[i] = Inst{Op: in.Op, Args: append([]int(nil), in.Args...), Callee: in.Callee}
	}
	return cp
}
