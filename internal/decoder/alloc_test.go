package decoder

import (
	"math/rand"
	"testing"
)

// TestTrialZeroAlloc asserts the Monte Carlo trial body is
// allocation-free in steady state, at one round (code capacity) and at
// several: with a worker's scratch warmed up, syndrome extraction,
// matching (candidates, pairs, 2-opt), correction, and the verification
// pass all reuse their buffers.
func TestTrialZeroAlloc(t *testing.T) {
	l := lattice(t, 7)
	rng := rand.New(rand.NewSource(3))
	sc := l.newTrialScratch(nil)
	for _, c := range []struct {
		rounds int
		p      float64
	}{{1, 0.08}, {5, 0.04}} {
		hist := make([]bool, c.rounds*l.DataQubits()+(c.rounds-1)*l.Checks())
		for i := range hist {
			hist[i] = rng.Float64() < c.p
		}
		if _, err := l.historyTrial(sc, c.rounds, hist); err != nil { // warm the scratch
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := l.historyTrial(sc, c.rounds, hist); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%d-round historyTrial allocates %.1f times per trial, want 0", c.rounds, allocs)
		}
	}
}
