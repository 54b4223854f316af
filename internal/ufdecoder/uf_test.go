package ufdecoder

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"surfcomm/internal/decoder"
	"surfcomm/internal/scerr"
)

func lattice(t *testing.T, d int) *decoder.Lattice {
	t.Helper()
	l, err := decoder.NewLattice(d)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// codeCapacity is the harness at one perfectly measured round: the
// code-capacity Monte Carlo every logical-rate measurement runs.
func codeCapacity(t *testing.T, d int, seed int64, cfg decoder.Config) *decoder.HistoryMonteCarlo {
	return &decoder.HistoryMonteCarlo{Lattice: lattice(t, d), Rounds: 1, Rng: rand.New(rand.NewSource(seed)), Config: cfg}
}

// TestUFClearsSyndrome is the core validity property: for random error
// patterns at several distances and rates, the union-find correction
// must clear the syndrome exactly (logical success is statistical;
// syndrome clearing is not).
func TestUFClearsSyndrome(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range []int{3, 5, 7, 9, 13} {
		l := lattice(t, d)
		s := Strategy().NewSolver(l)
		errs := l.NewErrorPattern()
		correction := l.NewErrorPattern()
		combined := l.NewErrorPattern()
		for trial := 0; trial < 200; trial++ {
			p := []float64{0.01, 0.05, 0.12, 0.25}[trial%4]
			for q := range errs {
				errs[q] = rng.Float64() < p
			}
			syndrome := l.Syndrome(errs)
			if err := s.Decode(correction, syndrome); err != nil {
				t.Fatalf("d=%d trial=%d: %v", d, trial, err)
			}
			for q := range combined {
				combined[q] = errs[q] != correction[q]
			}
			for i, hot := range l.Syndrome(combined) {
				if hot {
					t.Fatalf("d=%d trial=%d: residual defect at plaquette %d", d, trial, i)
				}
			}
		}
	}
}

// TestUFHistoryMonteCarlo runs the space-time harness under the
// union-find strategy: the harness itself panics on any residual
// defect, so a clean pass proves the space-time peel is sound.
func TestUFHistoryMonteCarlo(t *testing.T) {
	for _, c := range []struct {
		d, rounds int
		p, q      float64
	}{
		{3, 3, 0.02, 0.01},
		{5, 5, 0.03, 0.02},
		{7, 4, 0.04, 0.03},
	} {
		mc := &decoder.HistoryMonteCarlo{
			Lattice: lattice(t, c.d),
			Rounds:  c.rounds,
			Rng:     rand.New(rand.NewSource(21)),
			Config:  decoder.Config{Workers: 2, Strategy: Strategy()},
		}
		if _, err := mc.RunContext(context.Background(), c.p, c.q, 200); err != nil {
			t.Fatalf("d=%d rounds=%d: %v", c.d, c.rounds, err)
		}
	}
}

// TestUFGoldenFailureCounts pins the union-find failure and work-op
// counts at the MWPM golden configurations, at several worker counts:
// the union-find decode is deterministic, so these are exact — any
// drift means the algorithm changed.
func TestUFGoldenFailureCounts(t *testing.T) {
	cases := []struct {
		d        int
		p        float64
		trials   int
		seed     int64
		failures int
		workOps  uint64
	}{
		{3, 0.03, 400, 7, 12, 2956},
		{5, 0.05, 300, 11, 18, 11880},
		{7, 0.08, 200, 3, 29, 29249},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			mc := codeCapacity(t, c.d, c.seed, decoder.Config{Workers: workers, Strategy: Strategy()})
			r, err := mc.RunContext(context.Background(), c.p, 0, c.trials)
			if err != nil {
				t.Fatal(err)
			}
			if r.Failures != c.failures || r.WorkOps != c.workOps {
				t.Errorf("d=%d p=%g workers=%d: %d failures, %d work-ops, want %d, %d",
					c.d, c.p, workers, r.Failures, r.WorkOps, c.failures, c.workOps)
			}
		}
	}
}

// TestHistorySingleRoundMatchesPerfectDecoder: one round with q = 0 is
// the perfect-measurement (code-capacity) case. The pinned Results are
// those of the separate perfect-measurement harness this one replaced,
// field for field — failures and work-ops included — under both
// strategies and at any worker count: the draws come in the same
// order, every defect sits at t = 0, and the one-round detector graph
// is the spatial one.
func TestHistorySingleRoundMatchesPerfectDecoder(t *testing.T) {
	const trials, seed = 2000, 5
	cases := []struct {
		strategy string
		d        int
		p        float64
		failures int
		workOps  uint64
	}{
		{decoder.StrategyMWPM, 3, 0.08, 300, 10960},
		{decoder.StrategyMWPM, 5, 0.04, 49, 31933},
		{decoder.StrategyMWPM, 9, 0.06, 148, 831195},
		{decoder.StrategyUnionFind, 3, 0.08, 353, 36929},
		{decoder.StrategyUnionFind, 5, 0.04, 41, 60574},
		{decoder.StrategyUnionFind, 9, 0.06, 87, 358221},
	}
	for _, c := range cases {
		s, err := decoder.StrategyByName(c.strategy)
		if err != nil {
			t.Fatal(err)
		}
		want := decoder.Result{
			Distance: c.d, PhysicalRate: c.p, Trials: trials,
			Failures: c.failures, LogicalRate: float64(c.failures) / trials, WorkOps: c.workOps,
		}
		for _, workers := range []int{1, 4} {
			hr, err := codeCapacity(t, c.d, seed, decoder.Config{Workers: workers, Strategy: s}).RunContext(context.Background(), c.p, 0, trials)
			if err != nil {
				t.Fatal(err)
			}
			if hr != want {
				t.Errorf("%s d=%d p=%g workers=%d: one-round history %+v, want %+v",
					c.strategy, c.d, c.p, workers, hr, want)
			}
		}
	}
}

// TestUFStatisticallyConsistentWithMWPM is the acceptance-criterion
// parity test: at the golden (d, p, trials, seed) cells the union-find
// failure count must sit within a pinned tolerance of the MWPM golden
// count. Union-find is an approximation of matching, so equality is
// not expected — but the counts are binomial with σ ≈ √failures, and a
// decoder that drifts past ~4σ (plus the systematic accuracy gap,
// which grows with the failure count) is broken, not approximate.
func TestUFStatisticallyConsistentWithMWPM(t *testing.T) {
	cases := []struct {
		d      int
		p      float64
		trials int
		seed   int64
		mwpm   int // pinned MWPM goldens from internal/decoder golden_test
		tol    int // pinned tolerance: ~4σ + systematic margin
	}{
		{3, 0.03, 400, 7, 10, 14},
		{5, 0.05, 300, 11, 19, 18},
		{7, 0.08, 200, 3, 42, 27},
	}
	for _, c := range cases {
		mc := codeCapacity(t, c.d, c.seed, decoder.Config{Workers: 1, Strategy: Strategy()})
		r, err := mc.RunContext(context.Background(), c.p, 0, c.trials)
		if err != nil {
			t.Fatal(err)
		}
		diff := r.Failures - c.mwpm
		if diff < 0 {
			diff = -diff
		}
		if diff > c.tol {
			t.Errorf("d=%d p=%g: union-find %d failures vs MWPM %d (|Δ|=%d > tol %d)",
				c.d, c.p, r.Failures, c.mwpm, diff, c.tol)
		}
	}
}

// TestUFSuppressionBelowThreshold: union-find must preserve the
// exponential suppression the toolflow consumes, even with its
// slightly lower threshold.
func TestUFSuppressionBelowThreshold(t *testing.T) {
	const p = 0.03
	const trials = 3000
	rates := map[int]float64{}
	for _, d := range []int{3, 5, 7} {
		mc := codeCapacity(t, d, 7, decoder.Config{Strategy: Strategy()})
		r, err := mc.RunContext(context.Background(), p, 0, trials)
		if err != nil {
			t.Fatal(err)
		}
		rates[d] = r.LogicalRate
	}
	if !(rates[3] > rates[5] && rates[5] > rates[7]) {
		t.Errorf("suppression violated below threshold: d3=%.4f d5=%.4f d7=%.4f",
			rates[3], rates[5], rates[7])
	}
}

// TestUFOddDefectsNeedBoundary: an odd defect set on the (boundaryless)
// torus is undecodable and must surface as ErrBadConfig, not a hang or
// a bogus correction.
func TestUFOddDefectsNeedBoundary(t *testing.T) {
	l := lattice(t, 5)
	s := Strategy().NewSolver(l)
	syndrome := make([]bool, l.Checks())
	syndrome[7] = true
	correction := l.NewErrorPattern()
	if err := s.Decode(correction, syndrome); !errors.Is(err, scerr.ErrBadConfig) {
		t.Errorf("odd defect count: got %v, want ErrBadConfig", err)
	}
}

// TestUFWorkOpsDeterministic: the same decode sequence must produce
// identical op counts (they feed the committed BENCH artifact).
func TestUFWorkOpsDeterministic(t *testing.T) {
	run := func() uint64 {
		mc := codeCapacity(t, 7, 5, decoder.Config{Workers: 3, Strategy: Strategy()})
		r, err := mc.RunContext(context.Background(), 0.06, 0, 300)
		if err != nil {
			t.Fatal(err)
		}
		return r.WorkOps
	}
	a, b := run(), run()
	if a != b || a == 0 {
		t.Errorf("work ops not deterministic: %d vs %d", a, b)
	}
}

// TestUFZeroAllocSteadyState: with a warmed solver, one-round and
// multi-round decodes must not allocate — the streaming endpoint's
// per-window path runs through exactly this code. Each round count's
// warm-up decode builds its graph; a solver keeps one.
func TestUFZeroAllocSteadyState(t *testing.T) {
	l := lattice(t, 9)
	s := Strategy().NewSolver(l)
	rng := rand.New(rand.NewSource(3))
	errs := l.NewErrorPattern()
	for q := range errs {
		errs[q] = rng.Float64() < 0.08
	}
	syndrome := l.Syndrome(errs)
	correction := l.NewErrorPattern()
	if err := s.Decode(correction, syndrome); err != nil { // warm
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.Decode(correction, syndrome); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("one-round decode allocates %.1f times, want 0", allocs)
	}

	const rounds = 4
	changes := make([]bool, rounds*l.Checks())
	// A change volume with per-round even parity: two changes per round.
	for tr := 0; tr < rounds; tr++ {
		changes[tr*l.Checks()+tr] = true
		changes[tr*l.Checks()+tr+11] = true
	}
	if err := s.DecodeHistory(correction, changes, rounds); err != nil { // warm
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if err := s.DecodeHistory(correction, changes, rounds); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("space-time decode allocates %.1f times, want 0", allocs)
	}
}

// TestUFCheaperThanMWPMAtScale is the crossover claim in miniature: at
// a large distance and high defect density, union-find's deterministic
// work-op count must undercut the matcher's (candidate enumeration
// alone is quadratic in defects). The committed BENCH_decode.json
// records the full curve; this guards the direction.
func TestUFCheaperThanMWPMAtScale(t *testing.T) {
	const d, p, trials = 17, 0.08, 60
	ops := map[string]uint64{}
	for name, s := range map[string]decoder.Strategy{"mwpm": nil, "unionfind": Strategy()} {
		mc := codeCapacity(t, d, 13, decoder.Config{Workers: 1, Strategy: s})
		r, err := mc.RunContext(context.Background(), p, 0, trials)
		if err != nil {
			t.Fatal(err)
		}
		ops[name] = r.WorkOps
	}
	if ops["unionfind"] >= ops["mwpm"] {
		t.Errorf("union-find should be cheaper at d=%d: uf=%d mwpm=%d", d, ops["unionfind"], ops["mwpm"])
	}
}
