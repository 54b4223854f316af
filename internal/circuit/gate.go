// Package circuit defines the logical-level intermediate representation
// used throughout the toolchain: quantum gates drawn from a standard
// fault-tolerant instruction set (Clifford+T plus preparation and
// measurement), flat circuits, hierarchical module programs, and a
// textual QASM form.
//
// The IR deliberately stops at the logical level: error-correction
// redundancy, tile geometry, and communication are added by the backend
// packages (surface, braid, teleport). This mirrors the paper's split
// between the ScaffCC-style frontend and the mapping/simulation backend.
package circuit

import "fmt"

// Opcode identifies a logical gate. The set is the standard universal
// fault-tolerant basis for surface codes: Cliffords are cheap
// (transversal or braided), T requires a distilled magic state, and
// arbitrary rotations are macro-expanded into Clifford+T sequences by
// the Builder before they reach this level.
type Opcode uint8

const (
	// Nop does nothing; it never appears in well-formed circuits but is
	// the zero value so uninitialized gates are detectably invalid.
	Nop Opcode = iota

	// PrepZ initializes a qubit to |0>.
	PrepZ
	// PrepX initializes a qubit to |+>.
	PrepX
	// MeasZ measures a qubit in the Z basis.
	MeasZ
	// MeasX measures a qubit in the X basis.
	MeasX

	// X is the Pauli bit-flip.
	X
	// Y is the Pauli Y.
	Y
	// Z is the Pauli phase-flip.
	Z
	// H is the Hadamard.
	H
	// S is the phase gate (Z^1/2).
	S
	// Sdg is the inverse phase gate.
	Sdg
	// T is the π/8 gate (Z^1/4); the only gate that consumes a magic state.
	T
	// Tdg is the inverse T gate; also consumes a magic state.
	Tdg

	// CNOT is the controlled-NOT; the canonical braided / transversal
	// two-qubit interaction.
	CNOT
	// CZ is the controlled-Z.
	CZ
	// Swap exchanges two qubits. At the logical level it appears only in
	// generated movement sequences; applications use CNOT/CZ.
	Swap

	// Toffoli is the doubly-controlled NOT kept as a macro instruction.
	// Backends never see it: Builder expands it to Clifford+T unless
	// KeepMacros is set (used by classical-logic verification of
	// arithmetic blocks).
	Toffoli

	// Barrier is a scheduling fence over its qubit list. It is emitted by
	// the module inliner at non-inlined call boundaries and consumes no
	// physical resources; the dependency analysis serializes across it.
	Barrier

	numOpcodes
)

// OpcodeCount is the size of the opcode space — schedulers use it to
// build dense per-opcode tables instead of maps.
const OpcodeCount = int(numOpcodes)

var opcodeNames = [numOpcodes]string{
	Nop:     "nop",
	PrepZ:   "prepz",
	PrepX:   "prepx",
	MeasZ:   "measz",
	MeasX:   "measx",
	X:       "x",
	Y:       "y",
	Z:       "z",
	H:       "h",
	S:       "s",
	Sdg:     "sdg",
	T:       "t",
	Tdg:     "tdg",
	CNOT:    "cnot",
	CZ:      "cz",
	Swap:    "swap",
	Toffoli: "toffoli",
	Barrier: "barrier",
}

// String returns the lower-case QASM mnemonic for the opcode.
func (op Opcode) String() string {
	if int(op) < len(opcodeNames) && opcodeNames[op] != "" {
		return opcodeNames[op]
	}
	return fmt.Sprintf("opcode(%d)", uint8(op))
}

// opcodesByInitial lists the opcodes, Nop left out, by the first byte
// of their mnemonic: a parse compares against one to three names.
var opcodesByInitial = func() (t [256][]Opcode) {
	for op := Nop + 1; op < numOpcodes; op++ {
		c := opcodeNames[op][0]
		t[c] = append(t[c], op)
	}
	return t
}()

// ParseOpcode converts a QASM mnemonic back to an Opcode.
func ParseOpcode(s string) (Opcode, error) {
	if s != "" {
		for _, op := range opcodesByInitial[s[0]] {
			if opcodeNames[op] == s {
				return op, nil
			}
		}
	}
	return Nop, fmt.Errorf("circuit: unknown opcode %q", s)
}

// Arity returns the number of qubit operands the opcode takes, or -1 for
// variable arity (Barrier).
func (op Opcode) Arity() int {
	switch op {
	case CNOT, CZ, Swap:
		return 2
	case Toffoli:
		return 3
	case Barrier:
		return -1
	case Nop:
		return 0
	default:
		return 1
	}
}

// IsTwoQubit reports whether the gate couples two logical qubits and
// therefore generates communication when the qubits are not colocated.
func (op Opcode) IsTwoQubit() bool { return op == CNOT || op == CZ || op == Swap }

// IsMeasurement reports whether the gate is a destructive readout.
func (op Opcode) IsMeasurement() bool { return op == MeasZ || op == MeasX }

// IsPreparation reports whether the gate (re)initializes its qubit.
func (op Opcode) IsPreparation() bool { return op == PrepZ || op == PrepX }

// IsT reports whether the gate consumes a distilled magic state.
func (op Opcode) IsT() bool { return op == T || op == Tdg }

// IsClifford reports whether the gate is in the Clifford group (cheap on
// the surface code; no ancilla factory traffic).
func (op Opcode) IsClifford() bool {
	switch op {
	case X, Y, Z, H, S, Sdg, CNOT, CZ, Swap, PrepZ, PrepX, MeasZ, MeasX:
		return true
	}
	return false
}

// Gate is one logical instruction on specific qubit indices.
type Gate struct {
	Op     Opcode
	Qubits []int
}

// NewGate constructs a gate, validating arity.
func NewGate(op Opcode, qubits ...int) (Gate, error) {
	g := Gate{Op: op, Qubits: qubits}
	if err := g.Validate(-1); err != nil {
		return Gate{}, err
	}
	return g, nil
}

// Validate checks operand arity, distinctness, and (when numQubits >= 0)
// that every operand index is in [0, numQubits).
func (g Gate) Validate(numQubits int) error {
	if g.Op == Nop || g.Op >= numOpcodes {
		return fmt.Errorf("circuit: invalid opcode %v", g.Op)
	}
	if want := g.Op.Arity(); want >= 0 && len(g.Qubits) != want {
		return fmt.Errorf("circuit: %v wants %d operands, got %d", g.Op, want, len(g.Qubits))
	}
	if g.Op == Barrier && len(g.Qubits) == 0 {
		return fmt.Errorf("circuit: barrier needs at least one qubit")
	}
	// The first operand that fails a range check or repeats an earlier
	// one names the error.
	dup := firstRepeat(g.Qubits)
	for i, q := range g.Qubits {
		if q < 0 {
			return fmt.Errorf("circuit: negative qubit index %d in %v", q, g.Op)
		}
		if numQubits >= 0 && q >= numQubits {
			return fmt.Errorf("circuit: qubit %d out of range [0,%d) in %v", q, numQubits, g.Op)
		}
		if i == dup {
			return fmt.Errorf("circuit: repeated qubit %d in %v", q, g.Op)
		}
	}
	return nil
}

// prefixScanMax is the widest operand list whose repeats firstRepeat
// finds by scanning each operand's prefix. Gate and call operand lists
// are mostly 1-2 wide and this runs per gate on every Append, Validate
// and canonicalization, so short lists take the scan, which allocates
// nothing; a set pays off only for wide barriers and calls.
const prefixScanMax = 64

// firstRepeat returns the smallest index whose operand equals an
// earlier one, or -1 if the operands are distinct. A list wider than
// prefixScanMax goes through a set, so a k-operand barrier costs O(k)
// rather than O(k²).
func firstRepeat(qs []int) int {
	if len(qs) <= prefixScanMax {
		for i, q := range qs {
			for _, prev := range qs[:i] {
				if prev == q {
					return i
				}
			}
		}
		return -1
	}
	seen := make(map[int]struct{}, len(qs))
	for i, q := range qs {
		if _, ok := seen[q]; ok {
			return i
		}
		seen[q] = struct{}{}
	}
	return -1
}

// String renders the gate in QASM form, e.g. "cnot q0,q3".
func (g Gate) String() string { return string(appendGate(nil, g.Op, g.Qubits)) }
