package circuit

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestOpcodeStringParseRoundTrip(t *testing.T) {
	for op := PrepZ; op < numOpcodes; op++ {
		got, err := ParseOpcode(op.String())
		if err != nil {
			t.Fatalf("ParseOpcode(%q): %v", op.String(), err)
		}
		if got != op {
			t.Errorf("round trip %v -> %q -> %v", op, op.String(), got)
		}
	}
}

func TestParseOpcodeRejectsUnknown(t *testing.T) {
	for _, s := range []string{"", "nop", "ccx", "H", "cnotx"} {
		if _, err := ParseOpcode(s); err == nil {
			t.Errorf("ParseOpcode(%q) should fail", s)
		}
	}
}

func TestOpcodeArity(t *testing.T) {
	cases := []struct {
		op   Opcode
		want int
	}{
		{H, 1}, {T, 1}, {MeasZ, 1}, {PrepX, 1},
		{CNOT, 2}, {CZ, 2}, {Swap, 2},
		{Barrier, -1}, {Nop, 0},
	}
	for _, c := range cases {
		if got := c.op.Arity(); got != c.want {
			t.Errorf("%v.Arity() = %d, want %d", c.op, got, c.want)
		}
	}
}

func TestOpcodeClassPredicates(t *testing.T) {
	if !CNOT.IsTwoQubit() || !CZ.IsTwoQubit() || !Swap.IsTwoQubit() {
		t.Error("two-qubit predicate missing a two-qubit gate")
	}
	if H.IsTwoQubit() || T.IsTwoQubit() {
		t.Error("single-qubit gate flagged as two-qubit")
	}
	if !T.IsT() || !Tdg.IsT() {
		t.Error("T predicate missing T gates")
	}
	if S.IsT() {
		t.Error("S flagged as T")
	}
	if T.IsClifford() || Tdg.IsClifford() {
		t.Error("T gates are not Clifford")
	}
	for _, op := range []Opcode{X, Y, Z, H, S, Sdg, CNOT, CZ, Swap} {
		if !op.IsClifford() {
			t.Errorf("%v should be Clifford", op)
		}
	}
	if !MeasZ.IsMeasurement() || !MeasX.IsMeasurement() {
		t.Error("measurement predicate broken")
	}
	if !PrepZ.IsPreparation() || !PrepX.IsPreparation() {
		t.Error("preparation predicate broken")
	}
	if Barrier.IsClifford() || Barrier.IsTwoQubit() {
		t.Error("barrier misclassified")
	}
}

func TestNewGateValidation(t *testing.T) {
	if _, err := NewGate(CNOT, 0, 0); err == nil {
		t.Error("repeated operand should fail")
	}
	if _, err := NewGate(CNOT, 0); err == nil {
		t.Error("wrong arity should fail")
	}
	if _, err := NewGate(H, -1); err == nil {
		t.Error("negative operand should fail")
	}
	if _, err := NewGate(Barrier); err == nil {
		t.Error("empty barrier should fail")
	}
	if _, err := NewGate(Nop); err == nil {
		t.Error("nop should fail")
	}
	g, err := NewGate(CNOT, 1, 4)
	if err != nil {
		t.Fatalf("valid gate rejected: %v", err)
	}
	if err := g.Validate(3); err == nil {
		t.Error("out-of-range operand should fail against numQubits=3")
	}
	if err := g.Validate(5); err != nil {
		t.Errorf("in-range operand failed: %v", err)
	}
}

func TestGateString(t *testing.T) {
	g := Gate{Op: CNOT, Qubits: []int{0, 3}}
	if got, want := g.String(), "cnot q0,q3"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	b := Gate{Op: Barrier, Qubits: []int{1, 2, 5}}
	if got, want := b.String(), "barrier q1,q2,q5"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// Property: any gate built from a valid opcode and distinct in-range
// qubits validates, and its String form is parseable back to the opcode.
func TestGateValidateQuick(t *testing.T) {
	f := func(opRaw uint8, a, b uint8) bool {
		op := Opcode(opRaw%uint8(numOpcodes-1) + 1) // skip Nop
		qa, qb := int(a%32), int(b%32)
		if qa == qb {
			qb = (qb + 1) % 32
		}
		var g Gate
		switch op.Arity() {
		case 1:
			g = Gate{Op: op, Qubits: []int{qa}}
		case 3:
			qc := (qb + 1) % 32
			if qc == qa {
				qc = (qc + 1) % 32
			}
			g = Gate{Op: op, Qubits: []int{qa, qb, qc}}
		default: // two-qubit gates and barrier
			g = Gate{Op: op, Qubits: []int{qa, qb}}
		}
		if err := g.Validate(32); err != nil {
			return false
		}
		parsed, err := ParseOpcode(op.String())
		return err == nil && parsed == op
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// prefixScanValidate is Gate.Validate's operand check as a prefix scan,
// the reference firstRepeat must agree with on every list.
func prefixScanValidate(g Gate, numQubits int) error {
	for i, q := range g.Qubits {
		if q < 0 {
			return fmt.Errorf("circuit: negative qubit index %d in %v", q, g.Op)
		}
		if numQubits >= 0 && q >= numQubits {
			return fmt.Errorf("circuit: qubit %d out of range [0,%d) in %v", q, numQubits, g.Op)
		}
		for _, prev := range g.Qubits[:i] {
			if prev == q {
				return fmt.Errorf("circuit: repeated qubit %d in %v", q, g.Op)
			}
		}
	}
	return nil
}

// TestValidateMatchesPrefixScan checks Gate.Validate against the prefix
// scan on random barriers on both sides of prefixScanMax: operands with
// repeats, negatives and out-of-range values, with and without a qubit
// count. Both must return the same first error, text included.
func TestValidateMatchesPrefixScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type kind struct {
		word string
		wide bool
	}
	kinds := map[kind]int{}
	for trial := 0; trial < 4000; trial++ {
		k := 1 + rng.Intn(3*prefixScanMax)
		n := k + rng.Intn(2*k)
		qs := rng.Perm(n)[:k]
		// Plant up to three faults: a repeat, a negative index or an
		// index at or past n.
		for f := rng.Intn(4); f > 0; f-- {
			i := rng.Intn(k)
			switch rng.Intn(3) {
			case 0:
				qs[i] = qs[rng.Intn(k)]
			case 1:
				qs[i] = -1 - rng.Intn(3)
			default:
				qs[i] = n + rng.Intn(3)
			}
		}
		g := Gate{Op: Barrier, Qubits: qs}
		for _, width := range []int{n, -1} {
			want, got := prefixScanValidate(g, width), g.Validate(width)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%d operands, Validate(%d): got %v, want %v", k, width, got, want)
			}
			if want != nil {
				kinds[kind{strings.Fields(want.Error())[1], k > prefixScanMax}]++
			}
		}
	}
	// Every error kind must have been drawn, on both sides of the width.
	for _, word := range []string{"negative", "qubit", "repeated"} {
		for _, wide := range []bool{false, true} {
			if kinds[kind{word, wide}] == 0 {
				t.Errorf("no %q error drawn with wide=%v", word, wide)
			}
		}
	}
}

// TestWideBarrierIsLinear canonicalizes and parses a barrier over a
// million qubits; a quadratic repeat check would take minutes.
func TestWideBarrierIsLinear(t *testing.T) {
	const n = 1_000_000
	var b strings.Builder
	b.WriteString("qubits 1000000\nbarrier ")
	for q := 0; q < n; q++ {
		if q > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('q')
		b.WriteString(strconv.Itoa(q))
	}
	b.WriteByte('\n')
	text := b.String()
	start := time.Now()
	canon, err := AppendCanonical(nil, text)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ReadQASM(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 1 || len(c.Gates[0].Qubits) != n || string(canon) != text {
		t.Fatalf("barrier did not survive: %d gates, canonical form %d of %d bytes", len(c.Gates), len(canon), len(text))
	}
	// The repeat is the last operand: every operand is checked first.
	dup := strings.Replace(text, ",q999999\n", ",q0\n", 1)
	if _, err := AppendCanonical(nil, dup); err == nil || !strings.Contains(err.Error(), "repeated qubit 0 in barrier") {
		t.Fatalf("AppendCanonical on a repeated last operand: %v", err)
	}
	t.Logf("%d-operand barrier canonicalized twice and parsed once in %v", n, time.Since(start))
}
