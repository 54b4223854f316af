package decoder

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
)

func lattice(t *testing.T, d int) *Lattice {
	t.Helper()
	l, err := NewLattice(d)
	if err != nil {
		t.Fatal(err)
	}
	return l
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
	corr, err := l.Decode(s)
	if err != nil {
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
			corr, err := l.Decode(s)
			if err != nil {
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

func TestDecodeRejectsBadSyndrome(t *testing.T) {
	l := lattice(t, 3)
	if _, err := l.Decode(make([]bool, 5)); err == nil {
		t.Error("wrong-length syndrome should fail")
	}
	odd := make([]bool, l.Checks())
	odd[0] = true
	if _, err := l.Decode(odd); err == nil {
		t.Error("odd defect count should fail")
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
		corr, err := l.Decode(l.Syndrome(e))
		if err != nil {
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
	mc := &MonteCarlo{Rng: rand.New(rand.NewSource(1))}
	mc.Lattice = lattice(t, 3)
	if _, err := mc.RunContext(context.Background(), -0.1, 10); err == nil {
		t.Error("negative rate should fail")
	}
	if _, err := mc.RunContext(context.Background(), 0.1, 0); err == nil {
		t.Error("zero trials should fail")
	}
	r, err := mc.RunContext(context.Background(), 0, 50)
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
		mc := &MonteCarlo{Lattice: lattice(t, d), Rng: rand.New(rand.NewSource(7))}
		r, err := mc.RunContext(context.Background(), p, trials)
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
	mc3 := &MonteCarlo{Lattice: lattice(t, 3), Rng: rand.New(rand.NewSource(9))}
	r3, err := mc3.RunContext(context.Background(), p, trials)
	if err != nil {
		t.Fatal(err)
	}
	mc7 := &MonteCarlo{Lattice: lattice(t, 7), Rng: rand.New(rand.NewSource(9))}
	r7, err := mc7.RunContext(context.Background(), p, trials)
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
	pairs := l.match(defects)
	total := 0
	for _, p := range pairs {
		total += l.torusDist(defects[p[0]], defects[p[1]])
	}
	if total != 2 {
		t.Errorf("matching weight = %d, want 2 (vertical pairs)", total)
	}
}
