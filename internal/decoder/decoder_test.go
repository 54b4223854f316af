package decoder

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"surfcomm/internal/scerr"
)

func lattice(t *testing.T, d int) *Lattice {
	t.Helper()
	l, err := NewLattice(d)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// codeCapacity is the harness at one perfectly measured round: the
// code-capacity Monte Carlo every logical-rate measurement runs.
func codeCapacity(l *Lattice, seed int64, cfg Config) *HistoryMonteCarlo {
	return &HistoryMonteCarlo{Lattice: l, Rounds: 1, Rng: rand.New(rand.NewSource(seed)), Config: cfg}
}

func TestNewLatticeValidation(t *testing.T) {
	for _, d := range []int{0, 1, 2, 4, 8} {
		if _, err := NewLattice(d); err == nil {
			t.Errorf("d=%d should be rejected", d)
		}
	}
	l := lattice(t, 5)
	if l.DataQubits() != 50 || l.Checks() != 25 || l.Distance() != 5 {
		t.Errorf("lattice dimensions wrong: %d data, %d checks", l.DataQubits(), l.Checks())
	}
}

func TestPlaquetteEdgesShape(t *testing.T) {
	l := lattice(t, 3)
	// Every edge must appear in exactly two plaquettes (torus).
	count := make([]int, l.DataQubits())
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			for _, q := range l.PlaquetteEdges(r, c) {
				count[q]++
			}
		}
	}
	for q, n := range count {
		if n != 2 {
			t.Errorf("edge %d appears in %d plaquettes, want 2", q, n)
		}
	}
}

func TestNoErrorNoSyndrome(t *testing.T) {
	l := lattice(t, 5)
	s := l.Syndrome(l.NewErrorPattern())
	for i, hot := range s {
		if hot {
			t.Fatalf("clean pattern produced defect at %d", i)
		}
	}
	corr := l.NewErrorPattern()
	if err := MWPM().NewSolver(l).Decode(corr, s); err != nil {
		t.Fatal(err)
	}
	for q, f := range corr {
		if f {
			t.Fatalf("empty syndrome produced correction at %d", q)
		}
	}
}

func TestSingleErrorExactlyCorrected(t *testing.T) {
	for _, d := range []int{3, 5, 7} {
		l := lattice(t, d)
		solver := MWPM().NewSolver(l)
		corr := l.NewErrorPattern()
		for q := 0; q < l.DataQubits(); q++ {
			e := l.NewErrorPattern()
			e[q] = true
			s := l.Syndrome(e)
			defects := 0
			for _, hot := range s {
				if hot {
					defects++
				}
			}
			if defects != 2 {
				t.Fatalf("d=%d single error on %d: %d defects, want 2", d, q, defects)
			}
			if err := solver.Decode(corr, s); err != nil {
				t.Fatal(err)
			}
			if l.LogicalFailure(e, corr) {
				t.Errorf("d=%d: single error on edge %d caused logical failure", d, q)
			}
		}
	}
}

func TestStabilizerResidualIsNotLogical(t *testing.T) {
	// A vertex star (product of X stabilizers) is a trivial residual:
	// syndrome-free and not a logical operator.
	l := lattice(t, 5)
	star := l.NewErrorPattern()
	star[l.hEdge(0, 0)] = true
	star[l.hEdge(0, l.d-1)] = true
	star[l.vEdge(0, 0)] = true
	star[l.vEdge(l.d-1, 0)] = true
	for i, hot := range l.Syndrome(star) {
		if hot {
			t.Fatalf("vertex star has defect at %d — not a stabilizer", i)
		}
	}
	if l.LogicalFailure(star, l.NewErrorPattern()) {
		t.Error("vertex star misdetected as logical operator")
	}
}

func TestWindingLoopIsLogical(t *testing.T) {
	l := lattice(t, 5)
	// Vertical dual loop: a column of horizontal edges.
	loop := l.NewErrorPattern()
	for r := 0; r < l.d; r++ {
		loop[l.hEdge(r, 2)] = true
	}
	for i, hot := range l.Syndrome(loop) {
		if hot {
			t.Fatalf("winding loop has defect at %d — not a cycle", i)
		}
	}
	if !l.LogicalFailure(loop, l.NewErrorPattern()) {
		t.Error("vertical winding loop not detected as logical")
	}
	// Horizontal dual loop: a row of vertical edges.
	loop2 := l.NewErrorPattern()
	for c := 0; c < l.d; c++ {
		loop2[l.vEdge(1, c)] = true
	}
	if !l.LogicalFailure(loop2, l.NewErrorPattern()) {
		t.Error("horizontal winding loop not detected as logical")
	}
}

// TestDecodeRejectsBadSyndrome: the matching solver answers
// ErrBadConfig for a flat syndrome or a change volume of the wrong
// length, for rounds < 1, and for an odd defect count — it never
// decodes bits that are not a syndrome, and never indexes past them.
func TestDecodeRejectsBadSyndrome(t *testing.T) {
	l := lattice(t, 3)
	s := MWPM().NewSolver(l)
	corr := l.NewErrorPattern()
	for _, n := range []int{0, 5, 2 * l.Checks()} {
		if err := s.Decode(corr, make([]bool, n)); !errors.Is(err, scerr.ErrBadConfig) {
			t.Errorf("%d-bit syndrome: got %v, want ErrBadConfig", n, err)
		}
	}
	for _, c := range []struct{ n, rounds int }{
		{5, 1},                // short
		{4*l.Checks() + 1, 4}, // long
		{3 * l.Checks(), 4},   // a round short
		{l.Checks(), 0},       // no rounds
		{0, 0},                // no rounds, empty
		{l.Checks(), -1},      // negative rounds
		{2 * l.Checks(), 1},   // two rounds' bits called one
	} {
		if err := s.DecodeHistory(corr, make([]bool, c.n), c.rounds); !errors.Is(err, scerr.ErrBadConfig) {
			t.Errorf("%d bits over %d rounds: got %v, want ErrBadConfig", c.n, c.rounds, err)
		}
	}
	odd := make([]bool, l.Checks())
	odd[0] = true
	if err := s.Decode(corr, odd); !errors.Is(err, scerr.ErrBadConfig) {
		t.Errorf("odd defect count: got %v, want ErrBadConfig", err)
	}
}

// Property: for any error pattern, the decoder's correction clears the
// syndrome (the load-bearing matching invariant).
func TestCorrectionClearsSyndromeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l, _ := NewLattice(3 + 2*rng.Intn(3))
		e := l.NewErrorPattern()
		for q := range e {
			if rng.Float64() < 0.15 {
				e[q] = true
			}
		}
		corr := l.NewErrorPattern()
		if err := MWPM().NewSolver(l).Decode(corr, l.Syndrome(e)); err != nil {
			return false
		}
		combined := l.NewErrorPattern()
		for q := range combined {
			combined[q] = e[q] != corr[q]
		}
		for _, hot := range l.Syndrome(combined) {
			if hot {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMonteCarloValidation(t *testing.T) {
	mc := codeCapacity(lattice(t, 3), 1, Config{})
	if _, err := mc.RunContext(context.Background(), -0.1, 0, 10); err == nil {
		t.Error("negative rate should fail")
	}
	if _, err := mc.RunContext(context.Background(), 0.1, 0, 0); err == nil {
		t.Error("zero trials should fail")
	}
	r, err := mc.RunContext(context.Background(), 0, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failures != 0 {
		t.Errorf("zero physical rate should never fail, got %d", r.Failures)
	}
}

// TestSuppressionBelowThreshold is the empirical validation of the
// toolflow's error model: below threshold, increasing the distance
// suppresses the logical rate.
func TestSuppressionBelowThreshold(t *testing.T) {
	const p = 0.03 // well below the matching threshold (~0.10)
	const trials = 3000
	rates := map[int]float64{}
	for _, d := range []int{3, 5, 7} {
		r, err := codeCapacity(lattice(t, d), 7, Config{}).RunContext(context.Background(), p, 0, trials)
		if err != nil {
			t.Fatal(err)
		}
		rates[d] = r.LogicalRate
	}
	if !(rates[3] > rates[5] && rates[5] > rates[7]) {
		t.Errorf("suppression violated below threshold: d3=%.4f d5=%.4f d7=%.4f",
			rates[3], rates[5], rates[7])
	}
	// At least ~2x suppression per distance step at p/p_th ~ 0.3.
	if rates[5] > 0 && rates[3]/rates[5] < 1.5 {
		t.Errorf("suppression factor d3->d5 too weak: %.2f", rates[3]/rates[5])
	}
}

// TestNoSuppressionAboveThreshold: far above threshold, more distance
// no longer helps (the paper's uncorrectable regime).
func TestNoSuppressionAboveThreshold(t *testing.T) {
	const p = 0.25
	const trials = 1500
	r3, err := codeCapacity(lattice(t, 3), 9, Config{}).RunContext(context.Background(), p, 0, trials)
	if err != nil {
		t.Fatal(err)
	}
	r7, err := codeCapacity(lattice(t, 7), 9, Config{}).RunContext(context.Background(), p, 0, trials)
	if err != nil {
		t.Fatal(err)
	}
	if r7.LogicalRate < r3.LogicalRate*0.8 {
		t.Errorf("above threshold, distance should not suppress: d3=%.3f d7=%.3f",
			r3.LogicalRate, r7.LogicalRate)
	}
}

func TestMatchRefinementImproves(t *testing.T) {
	// Four defects in a rectangle where greedy-nearest could pick the
	// crossing pairing; 2-opt must settle on the side pairing whose
	// total weight is minimal.
	l := lattice(t, 7)
	defects := []defect{{0, 0}, {0, 3}, {1, 0}, {1, 3}}
	var ms matchScratch
	pairs := ms.matchPairs(len(defects), func(a, b int) int {
		return l.torusDist(defects[a], defects[b])
	})
	total := 0
	for _, p := range pairs {
		total += l.torusDist(defects[p[0]], defects[p[1]])
	}
	if total != 2 {
		t.Errorf("matching weight = %d, want 2 (vertical pairs)", total)
	}
}
