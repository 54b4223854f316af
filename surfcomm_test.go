package surfcomm_test

import (
	"context"
	"testing"

	"surfcomm"
)

// must unwraps a workload constructor whose config is known valid.
func must(c *surfcomm.Circuit, err error) *surfcomm.Circuit {
	if err != nil {
		panic(err)
	}
	return c
}

// TestEndToEndPipeline exercises the full public API the way the paper's
// toolflow runs: generate an application, analyze it, map it to both
// architectures, and evaluate the design space.
func TestEndToEndPipeline(t *testing.T) {
	ctx := context.Background()
	w := surfcomm.Workload{
		Name:    "IM",
		Circuit: must(surfcomm.NewIsing(surfcomm.IsingConfig{N: 32, Steps: 1}, true)),
	}

	est, err := surfcomm.EstimateCircuit(w.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if est.LogicalOps == 0 || est.Parallelism <= 1 {
		t.Fatalf("estimate implausible: %+v", est)
	}

	tc, err := surfcomm.NewToolchain(surfcomm.WithDistance(5), surfcomm.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	braidPlan, err := tc.Compile(ctx, surfcomm.BraidBackend{}, w.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if braidPlan.Cycles < braidPlan.Braid.CriticalPathCycles {
		t.Fatal("braid schedule beats critical path")
	}

	planarPlan, err := tc.Compile(ctx, surfcomm.PlanarBackend{}, w.Circuit, func(tg *surfcomm.Target) {
		tg.SIMD = surfcomm.SIMDConfig{Regions: 4, Width: 16}
	})
	if err != nil {
		t.Fatal(err)
	}
	if planarPlan.EPR.ScheduleCycles < planarPlan.EPR.BaseCycles {
		t.Fatal("EPR schedule below base")
	}

	models, err := tc.Characterize(ctx, []surfcomm.Workload{w})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := surfcomm.Evaluate(models[0], 1e6, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if dp.QubitsRatio <= 1 {
		t.Error("planar tiles should be smaller than double-defect tiles")
	}
}

// TestPolicySweepViaFacade checks the Figure 6 headline through the
// public API: the combined policy beats program order for a parallel
// workload.
func TestPolicySweepViaFacade(t *testing.T) {
	im := must(surfcomm.NewIsing(surfcomm.IsingConfig{N: 32, Steps: 1}, true))
	tc, err := surfcomm.NewToolchain(surfcomm.WithDistance(5), surfcomm.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	ratio := func(p surfcomm.BraidPolicy) float64 {
		plan, err := tc.Compile(context.Background(), surfcomm.BraidBackend{}, im,
			func(tg *surfcomm.Target) { tg.Policy = p })
		if err != nil {
			t.Fatal(err)
		}
		return plan.Braid.Ratio
	}
	if p0, p6 := ratio(surfcomm.Policy0), ratio(surfcomm.Policy6); p6 >= p0 {
		t.Errorf("Policy 6 (%.2f) should beat Policy 0 (%.2f)", p6, p0)
	}
}

// TestBuilderFacade builds a circuit through the public API.
func TestBuilderFacade(t *testing.T) {
	b := surfcomm.NewBuilder("api", 3)
	b.H(0)
	b.Toffoli(0, 1, 2)
	b.MeasZ(2)
	c := b.Circuit
	if c.TCount() != 7 {
		t.Errorf("Toffoli T-count = %d, want 7", c.TCount())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	q := surfcomm.NewCircuit("direct", 2)
	q.Append(surfcomm.OpCNOT, 0, 1)
	if q.TwoQubitCount() != 1 {
		t.Error("opcode constants should work through the facade")
	}
}

// TestEPRWindowTradeoffViaFacade checks the §8.1 claim end to end.
func TestEPRWindowTradeoffViaFacade(t *testing.T) {
	sq := must(surfcomm.NewSQ(surfcomm.SQConfig{N: 6, Iters: 1}))
	tc, err := surfcomm.NewToolchain()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := tc.Compile(context.Background(), surfcomm.PlanarBackend{}, sq, func(tg *surfcomm.Target) {
		tg.SIMD = surfcomm.SIMDConfig{Regions: 4, Width: 8, Seed: 1}
	})
	if err != nil {
		t.Fatal(err)
	}
	sched := plan.SIMD
	cfg := surfcomm.TeleportConfig{Distance: 9}
	results, err := surfcomm.SweepEPRWindows(sched,
		[]int64{surfcomm.JITWindow(sched, cfg), surfcomm.PrefetchAll}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	jit, flood := results[0], results[1]
	if flood.PeakLiveEPR <= jit.PeakLiveEPR {
		t.Errorf("prefetch-all peak %d should exceed JIT peak %d", flood.PeakLiveEPR, jit.PeakLiveEPR)
	}
	if jit.LatencyOverhead > 0.25 {
		t.Errorf("JIT latency overhead %.1f%% too large", 100*jit.LatencyOverhead)
	}
}
