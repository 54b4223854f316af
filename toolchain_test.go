package surfcomm_test

import (
	"context"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"surfcomm"
	"surfcomm/internal/apps"
	"surfcomm/internal/braid"
	"surfcomm/internal/simd"
	"surfcomm/internal/teleport"
)

// --- API parity: the Toolchain must reproduce the engine entry points
// it wraps byte-for-byte at the same seed. ---

// TestBraidBackendParity compiles every Fig6Suite workload through
// Toolchain.Compile and asserts the plan — including the recorded
// static schedule — is identical to a direct braid.SimulateContext run.
func TestBraidBackendParity(t *testing.T) {
	tc, err := surfcomm.NewToolchain(surfcomm.WithDistance(5), surfcomm.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range surfcomm.Fig6Suite() {
		plan, err := tc.Compile(context.Background(), surfcomm.BraidBackend{}, w.Circuit,
			func(tg *surfcomm.Target) { tg.RecordSchedule = true })
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		ref, err := braid.SimulateContext(context.Background(), w.Circuit, braid.Policy6,
			braid.Config{Distance: 5, Seed: 1, RecordSchedule: true})
		if err != nil {
			t.Fatalf("%s: reference path: %v", w.Name, err)
		}
		if plan.Cycles != ref.ScheduleCycles {
			t.Errorf("%s: plan cycles %d != reference %d", w.Name, plan.Cycles, ref.ScheduleCycles)
		}
		if plan.PhysicalQubits != float64(ref.PhysicalQubits) {
			t.Errorf("%s: plan qubits %g != reference %d", w.Name, plan.PhysicalQubits, ref.PhysicalQubits)
		}
		if plan.CommOps != ref.BraidsPlaced {
			t.Errorf("%s: plan comm ops %d != reference %d", w.Name, plan.CommOps, ref.BraidsPlaced)
		}
		if !reflect.DeepEqual(plan.Braid.Schedule, ref.Schedule) {
			t.Errorf("%s: recorded schedules diverge (%d vs %d entries)",
				w.Name, len(plan.Braid.Schedule), len(ref.Schedule))
		}
	}
}

// TestPlanarBackendParity compiles every Fig6Suite workload through the
// planar backend and asserts the fused schedule + distribution match
// a direct simd.RunContext → teleport.JITWindow →
// teleport.DistributeContext chain.
func TestPlanarBackendParity(t *testing.T) {
	tc, err := surfcomm.NewToolchain(surfcomm.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range surfcomm.Fig6Suite() {
		plan, err := tc.Compile(context.Background(), surfcomm.PlanarBackend{}, w.Circuit)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		regions := 4
		if w.Circuit.NumQubits > 128 {
			regions = 16
		}
		width := 32
		if perBank := (w.Circuit.NumQubits + regions - 1) / regions; perBank > width {
			width = perBank
		}
		sched, err := simd.RunContext(context.Background(), w.Circuit, simd.Config{Regions: regions, Width: width, Seed: 1})
		if err != nil {
			t.Fatalf("%s: reference path: %v", w.Name, err)
		}
		cfg := teleport.Config{Distance: 9}
		ref, err := teleport.DistributeContext(context.Background(), sched, teleport.JITWindow(sched, cfg), cfg)
		if err != nil {
			t.Fatalf("%s: reference path: %v", w.Name, err)
		}
		if *plan.EPR != ref {
			t.Errorf("%s: EPR result diverges: %+v vs %+v", w.Name, *plan.EPR, ref)
		}
		if !reflect.DeepEqual(plan.SIMD.Moves, sched.Moves) {
			t.Errorf("%s: move lists diverge (%d vs %d moves)",
				w.Name, len(plan.SIMD.Moves), len(sched.Moves))
		}
		if plan.Cycles != ref.ScheduleCycles {
			t.Errorf("%s: plan cycles %d != reference %d", w.Name, plan.Cycles, ref.ScheduleCycles)
		}
	}
}

// TestSurgeryBackendCompilesSuite checks the third backend end to end:
// deterministic plans, schedules no faster than the merge-chain
// critical path, and — the paper's §8.2 argument — communication that
// costs more cycles than braiding's distance-independent claims.
func TestSurgeryBackendCompilesSuite(t *testing.T) {
	tc, err := surfcomm.NewToolchain(surfcomm.WithDistance(5), surfcomm.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range surfcomm.Fig6Suite() {
		plan, err := tc.Compile(context.Background(), surfcomm.SurgeryBackend{}, w.Circuit)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		again, err := tc.Compile(context.Background(), surfcomm.SurgeryBackend{}, w.Circuit)
		if err != nil {
			t.Fatalf("%s: recompile: %v", w.Name, err)
		}
		if plan.Cycles != again.Cycles || plan.CommOps != again.CommOps {
			t.Errorf("%s: surgery compile not deterministic", w.Name)
		}
		if plan.Cycles < plan.Braid.CriticalPathCycles {
			t.Errorf("%s: schedule %d beats critical path %d",
				w.Name, plan.Cycles, plan.Braid.CriticalPathCycles)
		}
		braidPlan, err := tc.Compile(context.Background(), surfcomm.BraidBackend{}, w.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Cycles < braidPlan.Cycles {
			t.Errorf("%s: surgery (%d cycles) should not beat braiding (%d cycles)",
				w.Name, plan.Cycles, braidPlan.Cycles)
		}
		if plan.PhysicalQubits >= braidPlan.PhysicalQubits {
			t.Errorf("%s: surgery qubits %g should undercut double-defect %g",
				w.Name, plan.PhysicalQubits, braidPlan.PhysicalQubits)
		}
	}
}

func syntheticModel(name string) surfcomm.AppModel {
	return surfcomm.AppModel{
		Name:         name,
		Parallelism:  2,
		MoveFraction: 0.5,
		CongestionDD: 1.8,
		QubitsForOps: func(k float64) float64 { return 8 * math.Cbrt(k) },
	}
}

// characterizationTarget is the target Toolchain.Characterize compiles
// at on a toolchain with default distance and the given seed.
func characterizationTarget(seed int64) *surfcomm.Target {
	return &surfcomm.Target{Distance: 9, Seed: seed, Policy: surfcomm.Policy6}
}

// checkModelMatchesBackends fails unless m carries w's DAG parallelism,
// the SIMD moves per logical op of w's planar plan and the
// schedule/critical-path ratio of its braid plan at target.
func checkModelMatchesBackends(t *testing.T, m surfcomm.AppModel, w surfcomm.Workload, target *surfcomm.Target) {
	t.Helper()
	ctx := context.Background()
	est, err := surfcomm.EstimateCircuit(w.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	planar, err := surfcomm.PlanarBackend{}.Compile(ctx, w.Circuit, target)
	if err != nil {
		t.Fatalf("%s: planar: %v", w.Name, err)
	}
	braided, err := surfcomm.BraidBackend{}.Compile(ctx, w.Circuit, target)
	if err != nil {
		t.Fatalf("%s: braid: %v", w.Name, err)
	}
	moves := float64(len(planar.SIMD.Moves)) / float64(est.LogicalOps)
	if m.Name != w.Name || m.Parallelism != est.Parallelism ||
		m.MoveFraction != moves || m.CongestionDD != braided.Braid.Ratio {
		t.Errorf("%s: model (parallelism %v, move fraction %v, congestion %v), backends give (%v, %v, %v)",
			w.Name, m.Parallelism, m.MoveFraction, m.CongestionDD, est.Parallelism, moves, braided.Braid.Ratio)
	}
}

// TestToolchainRecordParity asserts the Toolchain's pooled
// characterization reads every field the characterization records carry
// (BENCH_sweep.json) from Backend compiles at the study target: the
// toolchain's distance and seed, Policy 6 and the perfect device,
// whatever its technology.
func TestToolchainRecordParity(t *testing.T) {
	const seed = 3
	tc, err := surfcomm.NewToolchain(
		surfcomm.WithSeed(seed),
		surfcomm.WithWorkers(4),
		surfcomm.WithTechnology(surfcomm.Superconducting(1e-6)),
	)
	if err != nil {
		t.Fatal(err)
	}
	workloads := []surfcomm.Workload{
		{Name: "GSE", Circuit: must(surfcomm.NewGSE(surfcomm.GSEConfig{M: 4, Steps: 1}))},
		{Name: "IM", Circuit: must(surfcomm.NewIsing(surfcomm.IsingConfig{N: 10, Steps: 1}, true))},
	}
	models, err := tc.Characterize(context.Background(), workloads)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads {
		checkModelMatchesBackends(t, models[i], w, characterizationTarget(seed))
	}
}

// TestReferenceModelsMatchBackends holds every model behind Figures 7–9
// to what PlanarBackend and BraidBackend compile for its workload at the
// characterization target, SHA-1 included: at 592 qubits it is the one
// reference workload the planar backend sizes onto 16 SIMD regions.
func TestReferenceModelsMatchBackends(t *testing.T) {
	models, err := referenceModels()
	if err != nil {
		t.Fatal(err)
	}
	suite := apps.ReferenceSuite()
	if len(models) != len(suite) {
		t.Fatalf("%d models, want one per reference workload (%d)", len(models), len(suite))
	}
	for i, w := range suite {
		checkModelMatchesBackends(t, models[i], w, characterizationTarget(1))
	}
}

func TestCharacterizeSmallApps(t *testing.T) {
	tc, err := surfcomm.NewToolchain(surfcomm.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	models, err := tc.Characterize(context.Background(), []surfcomm.Workload{
		{Name: "GSE", Circuit: must(surfcomm.NewGSE(surfcomm.GSEConfig{M: 6, Steps: 1}))},
		{Name: "IM", Circuit: must(surfcomm.NewIsing(surfcomm.IsingConfig{N: 32, Steps: 1}, true))},
	})
	if err != nil {
		t.Fatal(err)
	}
	gse, im := models[0], models[1]
	if err := gse.Validate(); err != nil {
		t.Fatal(err)
	}
	if im.Parallelism <= gse.Parallelism {
		t.Errorf("IM parallelism %.1f should exceed GSE %.1f", im.Parallelism, gse.Parallelism)
	}
	if im.CongestionDD < gse.CongestionDD {
		t.Errorf("IM congestion %.2f should be at least GSE %.2f", im.CongestionDD, gse.CongestionDD)
	}
}

func TestCharacterizeUnknownScaling(t *testing.T) {
	tc, err := surfcomm.NewToolchain(surfcomm.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	c := must(surfcomm.NewGSE(surfcomm.GSEConfig{M: 4, Steps: 1}))
	if _, err := tc.Characterize(context.Background(), []surfcomm.Workload{{Name: "mystery", Circuit: c}}); err == nil {
		t.Error("unknown app name should fail (no scaling model)")
	}
}

// TestReferenceModelsIntegration checks the paper's shape on the full
// characterized reference suite, guarded by -short.
func TestReferenceModelsIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("integration characterization skipped in -short mode")
	}
	models, err := referenceModels()
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 5 {
		t.Fatalf("models = %d, want 5", len(models))
	}
	byName := map[string]surfcomm.AppModel{}
	for _, m := range models {
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		byName[m.Name] = m
	}
	// Paper-shape assertions on the measured characterization.
	if !(byName["GSE"].Parallelism < byName["SQ"].Parallelism) {
		t.Error("GSE should be the most serial app")
	}
	if !(byName["SHA-1"].Parallelism > 5) {
		t.Error("SHA-1 should be parallel")
	}
	if !(byName["IM_Fully_Inlined"].Parallelism > byName["IM_Semi_Inlined"].Parallelism) {
		t.Error("full inlining should expose more parallelism")
	}
	if !(byName["IM_Fully_Inlined"].CongestionDD > byName["GSE"].CongestionDD) {
		t.Error("parallel apps should congest braids more than serial apps")
	}
	// Boundary ordering at a mid-range error rate: the congested
	// parallel app crosses over later than the serial one.
	gseK, ok1 := surfcomm.Crossover(byName["GSE"], 1e-4)
	imK, ok2 := surfcomm.Crossover(byName["IM_Fully_Inlined"], 1e-4)
	if !ok1 || !ok2 {
		t.Fatalf("both crossovers should exist at 1e-4: %v %v", ok1, ok2)
	}
	if imK <= gseK {
		t.Errorf("IM boundary %.3g should sit above GSE %.3g at p=1e-4", imK, gseK)
	}
}

// --- Cancellation: every backend must abort a canceled compile with
// ErrCanceled and leak no goroutines. ---

// waitGoroutines polls until the goroutine count returns to the
// baseline (scheduler cleanup is asynchronous).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}

func testBackendCancellation(t *testing.T, b surfcomm.Backend) {
	t.Helper()
	tc, err := surfcomm.NewToolchain(surfcomm.WithDistance(5))
	if err != nil {
		t.Fatal(err)
	}
	circ := must(surfcomm.NewIsing(surfcomm.IsingConfig{N: 32, Steps: 1}, true))
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = tc.Compile(ctx, b, circ)
	if !errors.Is(err, surfcomm.ErrCanceled) {
		t.Fatalf("%s: err = %v, want ErrCanceled", b.Name(), err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("%s: err should also match context.Canceled, got %v", b.Name(), err)
	}
	waitGoroutines(t, baseline)
}

func TestBraidBackendCancellation(t *testing.T) {
	testBackendCancellation(t, surfcomm.BraidBackend{})
}

func TestPlanarBackendCancellation(t *testing.T) {
	testBackendCancellation(t, surfcomm.PlanarBackend{})
}

func TestSurgeryBackendCancellation(t *testing.T) {
	testBackendCancellation(t, surfcomm.SurgeryBackend{})
}

// TestFigure6CancellationBounded cancels the Figure 6 grid from its
// first progress event and asserts the run aborts within a bounded
// number of cells, reports ErrCanceled, and drains its worker pool.
func TestFigure6CancellationBounded(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := 0
	tc, err := surfcomm.NewToolchain(
		surfcomm.WithWorkers(2),
		surfcomm.WithProgress(func(ev surfcomm.Event) {
			events++ // serialized by the grid runner
			cancel()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	_, err = tc.RunStudies(ctx, []string{"fig6"}, surfcomm.StudyParams{}, io.Discard)
	if !errors.Is(err, surfcomm.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	total := len(surfcomm.Fig6Suite()) * len(surfcomm.AllBraidPolicies)
	// Cancel fires at the first completion; only cells already in
	// flight on the 2 workers may still land.
	if events == 0 || events > 4 {
		t.Errorf("grid processed %d cells after cancellation, want 1..4 (grid size %d)", events, total)
	}
	waitGoroutines(t, baseline)
}

// TestGridPrecanceledRunsNoCells asserts a canceled context stops the
// grid before any cell executes.
func TestGridPrecanceledRunsNoCells(t *testing.T) {
	events := 0
	tc, err := surfcomm.NewToolchain(
		surfcomm.WithProgress(func(surfcomm.Event) { events++ }),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = tc.Models(ctx)
	if !errors.Is(err, surfcomm.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if events != 0 {
		t.Errorf("%d cells ran under a pre-canceled context", events)
	}
}

// --- Sentinel errors across the facade. ---

func TestSentinelErrors(t *testing.T) {
	for _, d := range []int{0, 1001} {
		if _, err := surfcomm.NewToolchain(surfcomm.WithDistance(d)); !errors.Is(err, surfcomm.ErrBadConfig) {
			t.Errorf("WithDistance(%d): %v, want ErrBadConfig", d, err)
		}
	}
	if _, err := surfcomm.NewToolchain(surfcomm.WithPolicy(surfcomm.BraidPolicy(99))); !errors.Is(err, surfcomm.ErrBadConfig) {
		t.Errorf("WithPolicy(99): %v, want ErrBadConfig", err)
	}
	if _, err := surfcomm.NewToolchain(surfcomm.WithWorkers(-1)); !errors.Is(err, surfcomm.ErrBadConfig) {
		t.Errorf("WithWorkers(-1): %v, want ErrBadConfig", err)
	}

	c := surfcomm.NewCircuit("bad", 2)
	c.Append(surfcomm.OpCNOT, 0, 1)
	if _, err := braid.SimulateContext(context.Background(), c, braid.Policy(42), braid.Config{}); !errors.Is(err, surfcomm.ErrBadConfig) {
		t.Errorf("braid.SimulateContext bad policy: %v, want ErrBadConfig", err)
	}
	if _, err := simd.RunContext(context.Background(), c, simd.Config{Regions: 3}); !errors.Is(err, surfcomm.ErrBadConfig) {
		t.Errorf("simd.RunContext regions=3: %v, want ErrBadConfig", err)
	}

	if _, err := surfcomm.ModelFor(nil, "nope"); !errors.Is(err, surfcomm.ErrUnknownModel) {
		t.Errorf("ModelFor: %v, want ErrUnknownModel", err)
	}
	if _, err := surfcomm.Evaluate(syntheticModel("x"), 0.5, 1e-6); !errors.Is(err, surfcomm.ErrBadConfig) {
		t.Errorf("Evaluate K<1: %v, want ErrBadConfig", err)
	}
	if _, err := surfcomm.BackendByName("quantum-carrier-pigeon"); !errors.Is(err, surfcomm.ErrBadConfig) {
		t.Errorf("BackendByName: %v, want ErrBadConfig", err)
	}
}

// TestCompileEmitsCompileEvent pins the toolchain's one compile
// progress event: Compile and CompileIncremental (stitched and
// single-module fast path) each emit exactly one "compile" event naming
// the backend and the compiled circuit; a failed compile emits none.
func TestCompileEmitsCompileEvent(t *testing.T) {
	var events []surfcomm.Event
	tc, err := surfcomm.NewToolchain(
		surfcomm.WithDistance(5),
		surfcomm.WithProgress(func(ev surfcomm.Event) { events = append(events, ev) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	check := func(what string, plan surfcomm.Plan, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		want := surfcomm.Event{Stage: "compile", Backend: plan.Backend, Cell: plan.Circuit, Total: 1}
		if len(events) != 1 || events[0] != want {
			t.Errorf("%s events = %+v, want [%+v]", what, events, want)
		}
		events = nil
	}
	circ := must(surfcomm.NewIsing(surfcomm.IsingConfig{N: 8, Steps: 1}, true))
	plan, err := tc.Compile(ctx, surfcomm.PlanarBackend{}, circ)
	check("Compile", plan, err)

	prog, err := surfcomm.PipelineProgram(3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err = tc.CompileIncremental(ctx, surfcomm.BraidBackend{}, prog)
	check("CompileIncremental", plan, err)
	single := surfcomm.NewProgram("single", 2)
	single.Modules["single"].Insts = append(single.Modules["single"].Insts,
		surfcomm.ModuleInst{Op: surfcomm.OpCNOT, Args: []int{0, 1}})
	plan, err = tc.CompileIncremental(ctx, surfcomm.BraidBackend{}, single)
	check("CompileIncremental fast path", plan, err)

	if _, err := tc.Compile(ctx, surfcomm.BraidBackend{}, surfcomm.NewCircuit("empty", 0)); err == nil {
		t.Fatal("compiling a zero-qubit circuit succeeded")
	}
	if len(events) != 0 {
		t.Errorf("failed compile emitted %+v", events)
	}
}

// TestDecoderWorkerParity pins the Monte Carlo exposed through the
// Toolchain: the failure count must be bit-identical at every worker
// count (trial randomness is drawn sequentially from the seed; only
// decoding work is pooled). The decode study's grid is pinned by
// TestStudiesWorkerParity and tied to this path by
// TestDecodeStudyMatchesMonteCarlo.
func TestDecoderWorkerParity(t *testing.T) {
	ctx := context.Background()
	var refResult surfcomm.DecoderResult
	for i, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		tc, err := surfcomm.NewToolchain(surfcomm.WithWorkers(workers), surfcomm.WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		r, err := tc.MeasureLogicalErrorRate(ctx, 5, 0.04, 500)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			refResult = r
			if r.Failures == 0 {
				t.Error("expected some failures at d=5, p=0.04")
			}
			continue
		}
		if r != refResult {
			t.Errorf("workers=%d: result %+v diverged from serial %+v", workers, r, refResult)
		}
	}
}
