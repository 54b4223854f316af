package toolflow

import (
	"context"
	"math"
	"testing"
)

// synthetic models: fast to evaluate, no simulation required.
func serialModel() AppModel {
	return AppModel{
		Name:         "serial",
		Parallelism:  1.5,
		MoveFraction: 0.45,
		CongestionDD: 1.1,
		QubitsForOps: func(k float64) float64 { return math.Max(2, math.Sqrt(k/80)) },
	}
}

func parallelModel() AppModel {
	return AppModel{
		Name:         "parallel",
		Parallelism:  50,
		MoveFraction: 0.45,
		CongestionDD: 2.5,
		QubitsForOps: func(k float64) float64 { return math.Max(2, math.Sqrt(k/40)) },
	}
}

func TestModelValidate(t *testing.T) {
	good := serialModel()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Parallelism = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero parallelism should fail")
	}
	bad = good
	bad.CongestionDD = 0.5
	if err := bad.Validate(); err == nil {
		t.Error("congestion below 1 should fail")
	}
	bad = good
	bad.QubitsForOps = nil
	if err := bad.Validate(); err == nil {
		t.Error("missing scaling should fail")
	}
	bad = good
	bad.Name = ""
	if err := bad.Validate(); err == nil {
		t.Error("missing name should fail")
	}
}

func TestEvaluateBasicInvariants(t *testing.T) {
	m := serialModel()
	for _, k := range []float64{10, 1e6, 1e12, 1e18} {
		dp, err := Evaluate(m, k, 1e-5)
		if err != nil {
			t.Fatalf("K=%g: %v", k, err)
		}
		if dp.PlanarQubits <= 0 || dp.DDQubits <= 0 || dp.PlanarSeconds <= 0 || dp.DDSeconds <= 0 {
			t.Fatalf("K=%g: non-positive resources: %+v", k, dp)
		}
		if dp.QubitsRatio <= 1 {
			t.Errorf("K=%g: planar tiles are smaller — qubits ratio %.2f should exceed 1", k, dp.QubitsRatio)
		}
		if got := dp.QubitsRatio * dp.TimeRatio; math.Abs(got-dp.SpaceTimeRatio) > 1e-9 {
			t.Errorf("K=%g: product inconsistency: %g vs %g", k, got, dp.SpaceTimeRatio)
		}
	}
}

func TestEvaluateDistanceMonotoneInK(t *testing.T) {
	m := serialModel()
	prev := 0
	for _, k := range []float64{1, 1e4, 1e8, 1e12, 1e16, 1e20, 1e24} {
		dp, err := Evaluate(m, k, 1e-5)
		if err != nil {
			t.Fatal(err)
		}
		if dp.Distance < prev {
			t.Errorf("distance decreased at K=%g: %d < %d", k, dp.Distance, prev)
		}
		prev = dp.Distance
	}
}

func TestEvaluatePlanarFavoredAtSmallK(t *testing.T) {
	// The headline small-K claim: planar codes fare better (smaller
	// lattices) before the crossover.
	for _, m := range []AppModel{serialModel(), parallelModel()} {
		dp, err := Evaluate(m, 100, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if dp.SpaceTimeRatio <= 1 {
			t.Errorf("%s: space-time ratio at K=100 is %.2f, want > 1 (planar favored)",
				m.Name, dp.SpaceTimeRatio)
		}
	}
}

func TestEvaluateRatioDeclinesWithK(t *testing.T) {
	m := serialModel()
	prev := math.Inf(1)
	for _, k := range []float64{1e2, 1e6, 1e10, 1e14, 1e18, 1e22} {
		dp, err := Evaluate(m, k, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if dp.SpaceTimeRatio > prev*1.05 { // allow distance-step wiggle
			t.Errorf("ratio rose at K=%g: %.3f > %.3f", k, dp.SpaceTimeRatio, prev)
		}
		prev = dp.SpaceTimeRatio
	}
}

func TestEvaluateErrors(t *testing.T) {
	m := serialModel()
	if _, err := Evaluate(m, 0.5, 1e-5); err == nil {
		t.Error("K < 1 should fail")
	}
	if _, err := Evaluate(m, 1e6, 2e-2); err == nil {
		t.Error("above-threshold device should fail")
	}
	bad := m
	bad.QubitsForOps = nil
	if _, err := Evaluate(bad, 1e6, 1e-5); err == nil {
		t.Error("invalid model should fail")
	}
}

func TestCrossoverExistsAndOrdered(t *testing.T) {
	s, sok := Crossover(serialModel(), 1e-5)
	p, pok := Crossover(parallelModel(), 1e-5)
	if !sok || !pok {
		t.Fatalf("both crossovers should exist: serial=%v parallel=%v", sok, pok)
	}
	if s <= 1 || p <= 1 {
		t.Fatalf("crossovers should be beyond K=1: %g, %g", s, p)
	}
	// The paper's central claim: congestion pushes the parallel app's
	// crossover to larger computations.
	if p <= s {
		t.Errorf("parallel crossover %.3g should exceed serial %.3g", p, s)
	}
}

func TestCrossoverMonotoneInErrorRate(t *testing.T) {
	m := serialModel()
	prev := math.Inf(1)
	for _, p := range []float64{1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3} {
		k, ok := Crossover(m, p)
		if !ok {
			continue
		}
		if k > prev*1.10 {
			t.Errorf("boundary rose at p=%g: %.3g > %.3g", p, k, prev)
		}
		prev = k
	}
}

func TestCrossoverUncorrectableDevice(t *testing.T) {
	if _, ok := Crossover(serialModel(), 5e-2); ok {
		t.Error("above-threshold device has no meaningful crossover")
	}
}

func TestBoundarySweep(t *testing.T) {
	rates := Figure9ErrorRates()
	if len(rates) != 11 {
		t.Fatalf("error rates = %d, want 11 (1e-8..1e-3, half-decades)", len(rates))
	}
	if rates[0] != 1e-8 || math.Abs(rates[len(rates)-1]-1e-3)/1e-3 > 1e-9 {
		t.Errorf("rate endpoints: %g .. %g", rates[0], rates[len(rates)-1])
	}
	pts := Boundary(serialModel(), rates)
	if len(pts) != len(rates) {
		t.Fatalf("boundary points = %d", len(pts))
	}
	for i, pt := range pts {
		if pt.PhysicalError != rates[i] {
			t.Errorf("point %d rate %g != %g", i, pt.PhysicalError, rates[i])
		}
		if !pt.OffChart && pt.CrossoverOps < 1 {
			t.Errorf("point %d: invalid crossover %g", i, pt.CrossoverOps)
		}
	}
}

func TestCurve(t *testing.T) {
	pts, err := CurveContext(context.Background(), serialModel(), 1e-6, 0, 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 25 {
		t.Fatalf("points = %d, want 25", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].TotalOps <= pts[i-1].TotalOps {
			t.Error("curve K values must increase")
		}
	}
}

func TestModelFor(t *testing.T) {
	models := []AppModel{serialModel(), parallelModel()}
	m, err := ModelFor(models, "parallel")
	if err != nil || m.Name != "parallel" {
		t.Errorf("ModelFor failed: %v %v", m, err)
	}
	if _, err := ModelFor(models, "nope"); err == nil {
		t.Error("unknown name should fail")
	}
}
