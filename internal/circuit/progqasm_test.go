package circuit

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// testProgram builds a small two-level program: main calls sub twice
// over different qubit windows, sub calls leaf.
func testProgram(t *testing.T) *Program {
	t.Helper()
	p := NewProgram("main", 4)
	main := p.Modules["main"]
	main.Gate(H, 0)
	main.Call("sub", 0, 1)
	main.Gate(CNOT, 1, 2)
	main.Call("sub", 2, 3)
	sub := &Module{Name: "sub", NumQubits: 2}
	sub.Gate(T, 0)
	sub.Call("leaf", 1)
	leaf := &Module{Name: "leaf", NumQubits: 1}
	leaf.Gate(X, 0)
	if err := p.AddModule(sub); err != nil {
		t.Fatal(err)
	}
	if err := p.AddModule(leaf); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProgramQASMRoundTrip(t *testing.T) {
	p := testProgram(t)
	text := ProgramQASMString(p)
	got, err := ReadProgramQASM(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ReadProgramQASM: %v", err)
	}
	if got.Entry != p.Entry {
		t.Fatalf("entry %q, want %q", got.Entry, p.Entry)
	}
	if len(got.Modules) != len(p.Modules) {
		t.Fatalf("modules %d, want %d", len(got.Modules), len(p.Modules))
	}
	// Re-serialization must be byte-identical — the digest layer depends
	// on canonical emission.
	if again := ProgramQASMString(got); again != text {
		t.Fatalf("round trip not canonical:\n%s\nvs\n%s", text, again)
	}
	// Flattened semantics must match.
	want, err := p.Flatten(InlineAll)
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.Flatten(InlineAll)
	if err != nil {
		t.Fatal(err)
	}
	if QASMString(want) != QASMString(have) {
		t.Fatal("flattened circuits differ after round trip")
	}
}

func TestProgramQASMCanonicalOrder(t *testing.T) {
	// Entry first, then remaining modules sorted by name — regardless of
	// insertion order.
	p := NewProgram("zzz", 2)
	p.Modules["zzz"].Call("beta", 0)
	p.Modules["zzz"].Call("alpha", 1)
	for _, name := range []string{"beta", "alpha"} {
		m := &Module{Name: name, NumQubits: 1}
		m.Gate(H, 0)
		if err := p.AddModule(m); err != nil {
			t.Fatal(err)
		}
	}
	text := ProgramQASMString(p)
	zi := strings.Index(text, "module zzz")
	ai := strings.Index(text, "module alpha")
	bi := strings.Index(text, "module beta")
	if !(zi >= 0 && ai > zi && bi > ai) {
		t.Fatalf("canonical order violated:\n%s", text)
	}
}

func TestLooksHierarchicalQASM(t *testing.T) {
	if !LooksHierarchicalQASM("# c\nentry main\nmodule main 1\nh q0\n") {
		t.Error("entry-directive text should sniff hierarchical")
	}
	if LooksHierarchicalQASM("# flat\nqubits 2\nh q0\ncnot q0,q1\n") {
		t.Error("flat dialect should not sniff hierarchical")
	}
	if LooksHierarchicalQASM("") {
		t.Error("empty text should not sniff hierarchical")
	}
}

func TestReadProgramQASMErrors(t *testing.T) {
	cases := map[string]string{
		"missing entry":    "module main 1\nh q0\n",
		"unknown callee":   "entry main\nmodule main 1\ncall ghost q0\n",
		"arity mismatch":   "entry main\nmodule main 2\ncall sub q0,q1\nmodule sub 1\nh q0\n",
		"gate pre-module":  "entry main\nh q0\nmodule main 1\n",
		"bad qubit count":  "entry main\nmodule main 0\n",
		"recursion":        "entry main\nmodule main 1\ncall main q0\n",
		"duplicate entry":  "entry main\nentry other\nmodule main 1\nh q0\n",
		"extra gate field": "entry main\nmodule main 2\nh q0 q1\n",
		"extra call field": "entry main\nmodule main 2\ncall sub q0 q1\nmodule sub 1\nh q0\n",
	}
	for name, text := range cases {
		if _, err := ReadProgramQASM(strings.NewReader(text)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestProgramCloneIsDeep(t *testing.T) {
	p := testProgram(t)
	cp := p.Clone()
	cp.Modules["leaf"].Gate(Z, 0)
	cp.Modules["main"].Insts[1].Args[0] = 3
	if len(p.Modules["leaf"].Insts) != 1 {
		t.Error("clone aliased leaf instructions")
	}
	if p.Modules["main"].Insts[1].Args[0] != 0 {
		t.Error("clone aliased call args")
	}
	if ProgramQASMString(p) == ProgramQASMString(cp) {
		t.Error("mutated clone should serialize differently")
	}
}

func TestModuleQASMStringCoversBody(t *testing.T) {
	p := testProgram(t)
	s := ModuleQASMString(p.Modules["sub"])
	if !strings.HasPrefix(s, "module sub 2\n") {
		t.Fatalf("missing header: %q", s)
	}
	if !strings.Contains(s, "call leaf q1\n") {
		t.Fatalf("missing call line: %q", s)
	}
}

// TestWideCallArgErrors runs the call-argument checks of both program
// paths on calls wider than prefixScanMax: the first bad argument, a
// repeat or an index out of range, names the error.
func TestWideCallArgErrors(t *testing.T) {
	const n = 2 * prefixScanMax
	call := func(edit func(args []int)) string {
		args := make([]int, n)
		for i := range args {
			args[i] = i
		}
		edit(args)
		ops := make([]string, n)
		for i, a := range args {
			ops[i] = "q" + strconv.Itoa(a)
		}
		return fmt.Sprintf("entry main\nmodule main %d\ncall sub %s\nmodule sub %d\nh q0\n",
			n, strings.Join(ops, ","), n)
	}
	cases := map[string]struct{ text, want string }{
		"repeat first": {call(func(a []int) { a[n-9] = 3; a[n-2] = n }), "main inst 0: repeated arg 3"},
		"range first":  {call(func(a []int) { a[n-9] = n + 1; a[n-2] = 3 }), fmt.Sprintf("main inst 0: arg %d out of range", n+1)},
		"distinct":     {call(func([]int) {}), ""},
	}
	for name, c := range cases {
		_, perr := ReadProgramQASM(strings.NewReader(c.text))
		_, cerr := AppendCanonical(nil, c.text)
		for path, err := range map[string]error{"ReadProgramQASM": perr, "AppendCanonical": cerr} {
			if c.want == "" {
				if err != nil {
					t.Errorf("%s: %s: %v", name, path, err)
				}
			} else if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: %s: got %v, want %q", name, path, err, c.want)
			}
		}
	}
}
