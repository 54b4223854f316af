package circuit

import (
	"fmt"
	"strings"
	"testing"
)

// twoLevel builds main -> outer -> inner with gates at every level.
func twoLevel() *Program {
	p := NewProgram("main", 4)
	main := p.Modules["main"]
	main.Gate(H, 0)
	main.Call("outer", 0, 1, 2, 3)
	main.Gate(MeasZ, 0)

	outer := &Module{Name: "outer", NumQubits: 4}
	outer.Gate(CNOT, 0, 1)
	outer.Call("inner", 2, 3)
	if err := p.AddModule(outer); err != nil {
		panic(err)
	}

	inner := &Module{Name: "inner", NumQubits: 2}
	inner.Gate(CZ, 0, 1)
	inner.Gate(T, 1)
	if err := p.AddModule(inner); err != nil {
		panic(err)
	}
	return p
}

func TestFlattenFullInline(t *testing.T) {
	p := twoLevel()
	c, err := p.Flatten(InlineAll)
	if err != nil {
		t.Fatal(err)
	}
	if c.CountOp(Barrier) != 0 {
		t.Errorf("fully inlined circuit has %d barriers, want 0", c.CountOp(Barrier))
	}
	want := []string{"h q0", "cnot q0,q1", "cz q2,q3", "t q3", "measz q0"}
	if len(c.Gates) != len(want) {
		t.Fatalf("gate count %d, want %d: %v", len(c.Gates), len(want), c.Gates)
	}
	for i, w := range want {
		if c.Gates[i].String() != w {
			t.Errorf("gate %d = %q, want %q", i, c.Gates[i].String(), w)
		}
	}
}

func TestFlattenQubitRemapping(t *testing.T) {
	p := NewProgram("main", 3)
	p.Modules["main"].Call("sub", 2, 0) // callee q0->2, q1->0
	sub := &Module{Name: "sub", NumQubits: 2}
	sub.Gate(CNOT, 0, 1)
	if err := p.AddModule(sub); err != nil {
		t.Fatal(err)
	}
	c, err := p.Flatten(InlineAll)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Gates[0].String(); got != "cnot q2,q0" {
		t.Errorf("remapped gate = %q, want cnot q2,q0", got)
	}
}

func TestFlattenDepthZeroFencesTopLevelCalls(t *testing.T) {
	p := twoLevel()
	c, err := p.Flatten(0)
	if err != nil {
		t.Fatal(err)
	}
	// depth 0: the call to outer is fenced; the nested call to inner is
	// inside outer's expansion and also fenced (depth >= 0 everywhere).
	if got := c.CountOp(Barrier); got != 4 {
		t.Errorf("barriers = %d, want 4 (two fenced calls)", got)
	}
	// Gate content must be identical to the fully inlined version.
	if got, want := c.Ops(), 5; got != want {
		t.Errorf("ops = %d, want %d", got, want)
	}
}

func TestFlattenDepthOneFencesOnlyNested(t *testing.T) {
	p := twoLevel()
	c, err := p.Flatten(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.CountOp(Barrier); got != 2 {
		t.Errorf("barriers = %d, want 2 (only inner fenced)", got)
	}
	// The inner fence must cover exactly the two bound qubits 2,3.
	for _, g := range c.Gates {
		if g.Op == Barrier {
			if len(g.Qubits) != 2 || g.Qubits[0] != 2 || g.Qubits[1] != 3 {
				t.Errorf("inner barrier qubits = %v, want [2 3]", g.Qubits)
			}
		}
	}
}

func TestFlattenDepthAtHeightEqualsFullInline(t *testing.T) {
	p := twoLevel()
	if h := p.CallTreeHeight(); h != 2 {
		t.Fatalf("CallTreeHeight = %d, want 2", h)
	}
	c, err := p.Flatten(p.CallTreeHeight())
	if err != nil {
		t.Fatal(err)
	}
	if c.CountOp(Barrier) != 0 {
		t.Error("depth >= height should be barrier-free")
	}
}

func TestValidateRejectsUnknownCallee(t *testing.T) {
	p := NewProgram("main", 1)
	p.Modules["main"].Call("ghost", 0)
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("expected unknown-callee error, got %v", err)
	}
}

func TestValidateRejectsArityMismatch(t *testing.T) {
	p := NewProgram("main", 3)
	p.Modules["main"].Call("sub", 0, 1, 2)
	sub := &Module{Name: "sub", NumQubits: 2}
	if err := p.AddModule(sub); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err == nil {
		t.Error("expected arity mismatch error")
	}
}

func TestValidateRejectsRepeatedCallArg(t *testing.T) {
	p := NewProgram("main", 2)
	p.Modules["main"].Call("sub", 0, 0)
	sub := &Module{Name: "sub", NumQubits: 2}
	if err := p.AddModule(sub); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err == nil {
		t.Error("expected repeated-arg error")
	}
}

func TestValidateRejectsRecursion(t *testing.T) {
	p := NewProgram("main", 1)
	p.Modules["main"].Call("a", 0)
	a := &Module{Name: "a", NumQubits: 1}
	a.Call("b", 0)
	b := &Module{Name: "b", NumQubits: 1}
	b.Call("a", 0)
	if err := p.AddModule(a); err != nil {
		t.Fatal(err)
	}
	if err := p.AddModule(b); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Errorf("expected recursion error, got %v", err)
	}
}

func TestValidateRejectsMissingEntry(t *testing.T) {
	p := &Program{Modules: map[string]*Module{}, Entry: "nope"}
	if err := p.Validate(); err == nil {
		t.Error("expected missing-entry error")
	}
}

func TestAddModuleRejectsDuplicates(t *testing.T) {
	p := NewProgram("main", 1)
	if err := p.AddModule(&Module{Name: "main", NumQubits: 1}); err == nil {
		t.Error("duplicate module should be rejected")
	}
	if err := p.AddModule(&Module{NumQubits: 1}); err == nil {
		t.Error("anonymous module should be rejected")
	}
}

func TestCallTreeHeightNoCalls(t *testing.T) {
	p := NewProgram("main", 1)
	p.Modules["main"].Gate(H, 0)
	if h := p.CallTreeHeight(); h != 0 {
		t.Errorf("height = %d, want 0", h)
	}
}

// doubledChain builds m<depth> → … → m0 where module k calls module
// k-1 twice: linear text, 2^depth leaf executions.
func doubledChain(depth int) *Program {
	name := func(k int) string { return fmt.Sprintf("m%d", k) }
	p := &Program{Modules: map[string]*Module{}, Entry: name(depth)}
	for k := depth; k > 0; k-- {
		m := &Module{Name: name(k), NumQubits: 2}
		m.Call(name(k-1), 0, 1)
		m.Call(name(k-1), 1, 0)
		p.Modules[m.Name] = m
	}
	leaf := &Module{Name: name(0), NumQubits: 2}
	leaf.Gate(CNOT, 0, 1)
	p.Modules[leaf.Name] = leaf
	return p
}

// TestCallTreeHeightDeepChain: the height walk visits each module once,
// so a chain with 2^200 call paths answers at once.
func TestCallTreeHeightDeepChain(t *testing.T) {
	if h := doubledChain(200).CallTreeHeight(); h != 200 {
		t.Errorf("height = %d, want 200", h)
	}
}

// TestFlattenCap: Flatten expands a chain under the cap and refuses
// one past it (or past int64) before expanding anything.
func TestFlattenCap(t *testing.T) {
	c, err := doubledChain(10).Flatten(InlineAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 1<<10 {
		t.Errorf("depth-10 chain flattened to %d gates, want %d", len(c.Gates), 1<<10)
	}
	for _, depth := range []int{19, 200} {
		if _, err := doubledChain(depth).Flatten(InlineAll); err == nil || !strings.Contains(err.Error(), "flatten cap") {
			t.Errorf("depth-%d chain: err = %v, want the flatten cap", depth, err)
		}
	}
}
