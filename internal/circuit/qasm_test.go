package circuit

import (
	"math/rand"
	"strings"
	"testing"
)

func TestQASMRoundTrip(t *testing.T) {
	c := buildSample()
	text := QASMString(c)
	got, err := ReadQASM(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ReadQASM: %v\n%s", err, text)
	}
	if got.NumQubits != c.NumQubits {
		t.Errorf("NumQubits = %d, want %d", got.NumQubits, c.NumQubits)
	}
	if got.Name != c.Name {
		t.Errorf("Name = %q, want %q", got.Name, c.Name)
	}
	if len(got.Gates) != len(c.Gates) {
		t.Fatalf("gate count = %d, want %d", len(got.Gates), len(c.Gates))
	}
	for i := range c.Gates {
		if got.Gates[i].String() != c.Gates[i].String() {
			t.Errorf("gate %d = %q, want %q", i, got.Gates[i].String(), c.Gates[i].String())
		}
	}
}

func TestQASMRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 16
	c := New("random", n)
	ops1 := []Opcode{PrepZ, PrepX, MeasZ, MeasX, X, Y, Z, H, S, Sdg, T, Tdg}
	for i := 0; i < 500; i++ {
		switch rng.Intn(3) {
		case 0:
			c.Append(ops1[rng.Intn(len(ops1))], rng.Intn(n))
		case 1:
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			ops2 := []Opcode{CNOT, CZ, Swap}
			c.Append(ops2[rng.Intn(3)], a, b)
		case 2:
			a := rng.Intn(n - 2)
			c.Append(Barrier, a, a+1, a+2)
		}
	}
	got, err := ReadQASM(strings.NewReader(QASMString(c)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Gates) != len(c.Gates) {
		t.Fatalf("gate count %d != %d", len(got.Gates), len(c.Gates))
	}
	for i := range c.Gates {
		if got.Gates[i].String() != c.Gates[i].String() {
			t.Fatalf("gate %d mismatch: %q != %q", i, got.Gates[i].String(), c.Gates[i].String())
		}
	}
}

func TestReadQASMErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"gate before header", "h q0\n"},
		{"bad count", "qubits notanumber\n"},
		{"negative count", "qubits -2\n"},
		{"unknown gate", "qubits 2\nfoo q0\n"},
		{"bad operand", "qubits 2\nh qx\n"},
		{"missing prefix", "qubits 2\nh 0\n"},
		{"out of range", "qubits 2\nh q5\n"},
		{"arity", "qubits 2\ncnot q0\n"},
		{"duplicate qubits", "qubits 5\nh q4\ncnot q0,q4\nqubits 2\n"},
		{"extra operand field", "qubits 2\nh q0 q1\n"},
		{"extra field after operands", "qubits 3\ncnot q0,q1 q2\n"},
		{"empty", ""},
	}
	for _, c := range cases {
		if _, err := ReadQASM(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestReadQASMSkipsCommentsAndBlankLines(t *testing.T) {
	in := "# title here\n\nqubits 2\n# mid comment\nh q0\n\ncnot q0,q1\n"
	c, err := ReadQASM(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "title here" {
		t.Errorf("Name = %q, want %q", c.Name, "title here")
	}
	if len(c.Gates) != 2 {
		t.Errorf("gates = %d, want 2", len(c.Gates))
	}
}
