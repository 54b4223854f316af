package decoder

import (
	"context"
	"math/rand"
	"testing"
)

func TestHistoryValidation(t *testing.T) {
	mc := &HistoryMonteCarlo{Lattice: lattice(t, 3), Rounds: 3, Rng: rand.New(rand.NewSource(1))}
	if _, err := mc.RunContext(context.Background(), -0.1, 0, 10); err == nil {
		t.Error("negative p should fail")
	}
	if _, err := mc.RunContext(context.Background(), 0.1, 2, 10); err == nil {
		t.Error("q > 1 should fail")
	}
	if _, err := mc.RunContext(context.Background(), 0.1, 0.1, 0); err == nil {
		t.Error("zero trials should fail")
	}
	bad := &HistoryMonteCarlo{Lattice: lattice(t, 3), Rounds: 0, Rng: rand.New(rand.NewSource(1))}
	if _, err := bad.RunContext(context.Background(), 0.1, 0.1, 10); err == nil {
		t.Error("zero rounds should fail")
	}
}

func TestHistoryNoNoiseNoFailures(t *testing.T) {
	mc := &HistoryMonteCarlo{Lattice: lattice(t, 5), Rounds: 5, Rng: rand.New(rand.NewSource(2))}
	r, err := mc.RunContext(context.Background(), 0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failures != 0 {
		t.Errorf("noiseless history produced %d failures", r.Failures)
	}
}

func TestHistoryPureMeasurementNoiseHarmless(t *testing.T) {
	// Measurement errors alone create defect pairs adjacent in time;
	// matching them through time applies no data correction, so no
	// logical failure is possible.
	mc := &HistoryMonteCarlo{Lattice: lattice(t, 3), Rounds: 7, Rng: rand.New(rand.NewSource(3))}
	r, err := mc.RunContext(context.Background(), 0, 0.05, 300)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failures != 0 {
		t.Errorf("pure measurement noise caused %d logical failures", r.Failures)
	}
}

func TestHistorySuppressionWithDistance(t *testing.T) {
	const p, q = 0.008, 0.008
	const trials = 1500
	rates := map[int]float64{}
	for _, d := range []int{3, 5} {
		mc := &HistoryMonteCarlo{
			Lattice: lattice(t, d),
			Rounds:  d, // syndrome recorded for d rounds, as on hardware
			Rng:     rand.New(rand.NewSource(11)),
		}
		r, err := mc.RunContext(context.Background(), p, q, trials)
		if err != nil {
			t.Fatal(err)
		}
		rates[d] = r.LogicalRate
	}
	if rates[3] <= rates[5] {
		t.Errorf("space-time suppression violated: d3=%.4f d5=%.4f", rates[3], rates[5])
	}
}

func TestHistorySingleRoundMatchesPerfectDecoder(t *testing.T) {
	// One round with q=0 degenerates to the perfect-measurement case:
	// identical failure statistics under the same seed stream length is
	// too strict, but the rates should be close.
	const p = 0.04
	const trials = 2000
	hist := &HistoryMonteCarlo{Lattice: lattice(t, 5), Rounds: 1, Rng: rand.New(rand.NewSource(5))}
	hr, err := hist.RunContext(context.Background(), p, 0, trials)
	if err != nil {
		t.Fatal(err)
	}
	mc := &MonteCarlo{Lattice: lattice(t, 5), Rng: rand.New(rand.NewSource(5))}
	sr, err := mc.RunContext(context.Background(), p, trials)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := sr.LogicalRate*0.5-0.01, sr.LogicalRate*2+0.01
	if hr.LogicalRate < lo || hr.LogicalRate > hi {
		t.Errorf("single-round history rate %.4f far from perfect-measurement rate %.4f",
			hr.LogicalRate, sr.LogicalRate)
	}
}

func TestHistoryMeasurementNoiseHurts(t *testing.T) {
	// Adding measurement noise must not make decoding better.
	const p = 0.02
	const trials = 1500
	clean := &HistoryMonteCarlo{Lattice: lattice(t, 3), Rounds: 5, Rng: rand.New(rand.NewSource(6))}
	rc, err := clean.RunContext(context.Background(), p, 0, trials)
	if err != nil {
		t.Fatal(err)
	}
	noisy := &HistoryMonteCarlo{Lattice: lattice(t, 3), Rounds: 5, Rng: rand.New(rand.NewSource(6))}
	rn, err := noisy.RunContext(context.Background(), p, 0.05, trials)
	if err != nil {
		t.Fatal(err)
	}
	if rn.LogicalRate+0.01 < rc.LogicalRate {
		t.Errorf("measurement noise improved decoding: %.4f vs %.4f", rn.LogicalRate, rc.LogicalRate)
	}
}
