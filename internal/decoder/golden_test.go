package decoder

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
)

// TestGoldenMonteCarloFailures pins the Monte Carlo failure and
// work-op counts bit-identically to the pre-refactor serial harness, at
// every worker count: draws are pregenerated sequentially from the Rng,
// so the consumed stream — and therefore each trial's outcome and
// matching work — is the same no matter how the decoding work is
// pooled.
func TestGoldenMonteCarloFailures(t *testing.T) {
	cases := []struct {
		d        int
		p        float64
		trials   int
		seed     int64
		failures int
		workOps  uint64
	}{
		{3, 0.03, 400, 7, 10, 582},
		{5, 0.05, 300, 11, 19, 6785},
		{7, 0.08, 200, 3, 42, 49464},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			l := lattice(t, c.d)
			r, err := codeCapacity(l, c.seed, Config{Workers: workers}).RunContext(context.Background(), c.p, 0, c.trials)
			if err != nil {
				t.Fatal(err)
			}
			if r.Failures != c.failures || r.WorkOps != c.workOps {
				t.Errorf("d=%d p=%g seed=%d workers=%d: failures, work-ops = %d, %d, want %d, %d",
					c.d, c.p, c.seed, workers, r.Failures, r.WorkOps, c.failures, c.workOps)
			}
		}
	}
}

// TestGoldenHistoryFailures pins the space-time harness the same way.
func TestGoldenHistoryFailures(t *testing.T) {
	cases := []struct {
		d, rounds int
		p, q      float64
		trials    int
		seed      int64
		failures  int
	}{
		{3, 3, 0.02, 0.01, 300, 5, 14},
		{5, 5, 0.03, 0.02, 150, 9, 21},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			l := lattice(t, c.d)
			mc := &HistoryMonteCarlo{Lattice: l, Rounds: c.rounds, Rng: rand.New(rand.NewSource(c.seed)), Config: Config{Workers: workers}}
			r, err := mc.RunContext(context.Background(), c.p, c.q, c.trials)
			if err != nil {
				t.Fatal(err)
			}
			if r.Failures != c.failures {
				t.Errorf("d=%d rounds=%d seed=%d workers=%d: failures = %d, want %d",
					c.d, c.rounds, c.seed, workers, r.Failures, c.failures)
			}
		}
	}
}
