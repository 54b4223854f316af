package circuit

import (
	"fmt"
	"sort"
)

// Inst is one instruction inside a Module: either a gate on the module's
// local qubit indices, or a call to another module binding local qubits
// to the callee's formals.
type Inst struct {
	Op     Opcode // gate instruction when Op != Nop
	Args   []int  // qubit operands (gate) or actual arguments (call)
	Callee string // call instruction when non-empty
}

// IsCall reports whether the instruction is a module call.
func (in Inst) IsCall() bool { return in.Callee != "" }

// Module is a reusable subcircuit over NumQubits formal qubits. Calls
// bind formals positionally to the caller's actual qubits.
type Module struct {
	Name      string
	NumQubits int
	Insts     []Inst
}

// Gate appends a gate instruction to the module.
func (m *Module) Gate(op Opcode, qubits ...int) {
	m.Insts = append(m.Insts, Inst{Op: op, Args: qubits})
}

// Call appends a call instruction to the module.
func (m *Module) Call(callee string, args ...int) {
	m.Insts = append(m.Insts, Inst{Callee: callee, Args: args})
}

// Program is a hierarchical circuit: a set of modules and a designated
// entry module, the unit the ScaffCC-style frontend hands to flattening.
type Program struct {
	Modules map[string]*Module
	Entry   string
}

// NewProgram returns a program with a single empty entry module over n
// qubits.
func NewProgram(entry string, n int) *Program {
	p := &Program{Modules: map[string]*Module{}, Entry: entry}
	p.Modules[entry] = &Module{Name: entry, NumQubits: n}
	return p
}

// AddModule registers a module body.
func (p *Program) AddModule(m *Module) error {
	if m.Name == "" {
		return fmt.Errorf("circuit: module needs a name")
	}
	if _, dup := p.Modules[m.Name]; dup {
		return fmt.Errorf("circuit: duplicate module %q", m.Name)
	}
	p.Modules[m.Name] = m
	return nil
}

// Validate checks entry existence, call targets, arities, and operand
// ranges, and rejects call cycles (quantum programs are loop-unrolled by
// the frontend; recursion cannot be flattened).
func (p *Program) Validate() error {
	entry, ok := p.Modules[p.Entry]
	if !ok {
		return fmt.Errorf("circuit: entry module %q not found", p.Entry)
	}
	_ = entry
	// Per-module static checks.
	names := make([]string, 0, len(p.Modules))
	for name := range p.Modules {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := p.Modules[name]
		for i, in := range m.Insts {
			if in.IsCall() {
				callee, ok := p.Modules[in.Callee]
				if !ok {
					return fmt.Errorf("circuit: %s inst %d calls unknown module %q", name, i, in.Callee)
				}
				if len(in.Args) != callee.NumQubits {
					return fmt.Errorf("circuit: %s inst %d: call %s wants %d args, got %d",
						name, i, in.Callee, callee.NumQubits, len(in.Args))
				}
				dup := firstRepeat(in.Args)
				for ai, a := range in.Args {
					if a < 0 || a >= m.NumQubits {
						return fmt.Errorf("circuit: %s inst %d: arg %d out of range", name, i, a)
					}
					if ai == dup {
						return fmt.Errorf("circuit: %s inst %d: repeated arg %d", name, i, a)
					}
				}
				continue
			}
			g := Gate{Op: in.Op, Qubits: in.Args}
			if err := g.Validate(m.NumQubits); err != nil {
				return fmt.Errorf("circuit: %s inst %d: %w", name, i, err)
			}
		}
	}
	// Cycle check over the call graph.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(string) error
	visit = func(name string) error {
		switch color[name] {
		case grey:
			return fmt.Errorf("circuit: recursive call cycle through %q", name)
		case black:
			return nil
		}
		color[name] = grey
		for _, in := range p.Modules[name].Insts {
			if in.IsCall() {
				if err := visit(in.Callee); err != nil {
					return err
				}
			}
		}
		color[name] = black
		return nil
	}
	return visit(p.Entry)
}

// InlineAll is the depth argument to Flatten selecting seamless inlining
// of every call level (the paper's "fully inlined" configuration).
const InlineAll = -1

// maxFlatOps caps Flatten's expansion in gates plus call sites: calls
// nest multiplicatively, so a few hundred bytes of program can expand
// past any memory. It is 13× the largest circuit any study builds.
const maxFlatOps = 1 << 20

// Flatten expands the program into a flat Circuit.
//
// inlineDepth controls the paper's inlining degree knob (§7.3,
// IM_Semi_Inlined vs IM_Fully_Inlined): calls nested deeper than
// inlineDepth are still expanded into gates, but are wrapped in Barrier
// fences over the call's qubits, so the dependency analysis treats the
// call as an atomic region and cross-call parallelism is lost.
// InlineAll (or any depth >= the call-tree height) yields a barrier-free
// circuit with maximal exposed parallelism. A program whose expansion
// exceeds 1<<20 gates and calls is refused before any is expanded.
func (p *Program) Flatten(inlineDepth int) (*Circuit, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.walkCalls().ops > maxFlatOps {
		return nil, fmt.Errorf("circuit: program %q expands to more than the flatten cap of %d gates and calls", p.Entry, maxFlatOps)
	}
	entry := p.Modules[p.Entry]
	out := New(p.Entry, entry.NumQubits)

	// binding maps callee-local qubit indices to entry-level indices.
	var expand func(m *Module, binding []int, depth int)
	expand = func(m *Module, binding []int, depth int) {
		for _, in := range m.Insts {
			if !in.IsCall() {
				mapped := make([]int, len(in.Args))
				for i, a := range in.Args {
					mapped[i] = binding[a]
				}
				out.Gates = append(out.Gates, Gate{Op: in.Op, Qubits: mapped})
				continue
			}
			callee := p.Modules[in.Callee]
			sub := make([]int, len(in.Args))
			for i, a := range in.Args {
				sub[i] = binding[a]
			}
			fence := inlineDepth != InlineAll && depth >= inlineDepth
			if fence {
				out.Gates = append(out.Gates, Gate{Op: Barrier, Qubits: append([]int(nil), sub...)})
			}
			expand(callee, sub, depth+1)
			if fence {
				out.Gates = append(out.Gates, Gate{Op: Barrier, Qubits: append([]int(nil), sub...)})
			}
		}
	}

	identity := make([]int, entry.NumQubits)
	for i := range identity {
		identity[i] = i
	}
	expand(entry, identity, 0)
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// CallTreeHeight returns the maximum call nesting depth below the entry
// module (0 when the entry makes no calls).
func (p *Program) CallTreeHeight() int { return p.walkCalls().height }

// callTree summarizes the call tree below one module: its maximum call
// nesting depth, and the gates and call sites a full expansion visits
// (saturating at maxFlatOps+1, all Flatten needs to know).
type callTree struct{ height, ops int }

// walkCalls summarizes the call tree below the entry. Each module is
// visited once, so the walk is linear in the program text even when
// calls nest multiplicatively. The program must be free of call cycles
// (see Validate).
func (p *Program) walkCalls() callTree {
	memo := make(map[string]callTree, len(p.Modules))
	var walk func(string) callTree
	walk = func(name string) callTree {
		if t, ok := memo[name]; ok {
			return t
		}
		var t callTree
		for _, in := range p.Modules[name].Insts {
			t.ops++
			if in.IsCall() {
				c := walk(in.Callee)
				t.height = max(t.height, c.height+1)
				t.ops += c.ops
			}
			t.ops = min(t.ops, maxFlatOps+1)
		}
		memo[name] = t
		return t
	}
	return walk(p.Entry)
}
