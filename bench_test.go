// Benchmark harness regenerating every table and figure of the paper's
// evaluation. Each benchmark prints/report-metrics the same series the
// paper plots; EXPERIMENTS.md records paper-vs-measured values.
//
//	go test -bench=. -benchmem .
//
// Benchmarks:
//
//	BenchmarkTable1CommMethods    — Table 1 tradeoffs (braid vs teleport)
//	BenchmarkTable2Parallelism    — Table 2 application characterization
//	BenchmarkFigure6BraidPolicies — Fig. 6 policy sweep (ratio + utilization)
//	BenchmarkFigure7Scaling       — Fig. 7 absolute space/time vs K
//	BenchmarkFigure8Crossover     — Fig. 8 resource ratios and crossover
//	BenchmarkFigure9Boundary      — Fig. 9 boundary across error rates
//	BenchmarkSection81EPRWindow   — §8.1 JIT window sweep
//	BenchmarkAblation*            — design-choice ablations (DESIGN.md §6)
package surfcomm_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"testing"

	"surfcomm"
	"surfcomm/internal/braid"
	"surfcomm/internal/simd"
)

// BenchmarkTable1CommMethods measures the defining asymmetry of the two
// communication methods: braid schedule length is independent of
// operand separation; teleport stalls grow with distribution distance
// and vanish under prefetch.
func BenchmarkTable1CommMethods(b *testing.B) {
	for i := 0; i < b.N; i++ {
		near := surfcomm.NewCircuit("near", 8)
		near.Append(surfcomm.OpCNOT, 0, 1)
		far := surfcomm.NewCircuit("far", 8)
		far.Append(surfcomm.OpCNOT, 0, 7)
		place := surfcomm.RowMajorPlacement(8)
		rNear, err := braid.SimulateContext(context.Background(), near, braid.Policy1,
			braid.Config{Distance: 9, Placement: place})
		if err != nil {
			b.Fatal(err)
		}
		rFar, err := braid.SimulateContext(context.Background(), far, braid.Policy1,
			braid.Config{Distance: 9, Placement: surfcomm.RowMajorPlacement(8)})
		if err != nil {
			b.Fatal(err)
		}
		if rNear.ScheduleCycles != rFar.ScheduleCycles {
			b.Fatalf("braid latency must be distance-independent: %d vs %d",
				rNear.ScheduleCycles, rFar.ScheduleCycles)
		}
		b.ReportMetric(float64(rFar.ScheduleCycles), "braid-cycles")
		b.ReportMetric(float64(surfcomm.DoubleDefectTileQubits(9)), "dd-tile-qubits")
		b.ReportMetric(float64(surfcomm.PlanarTileQubits(9)), "planar-tile-qubits")
	}
}

// BenchmarkTable2Parallelism regenerates the Table 2 rows: per-app
// logical resources and the parallelism factor.
func BenchmarkTable2Parallelism(b *testing.B) {
	for _, w := range surfcomm.Table2Suite() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var est surfcomm.Estimate
			var err error
			for i := 0; i < b.N; i++ {
				est, err = surfcomm.EstimateCircuit(w.Circuit)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(est.Parallelism, "parallelism")
			b.ReportMetric(float64(est.LogicalOps), "ops")
			b.ReportMetric(float64(est.LogicalQubits), "qubits")
		})
	}
}

// BenchmarkFigure6BraidPolicies regenerates the Figure 6 series: for
// each application and policy, the schedule-to-critical-path ratio
// (blue bars) and average mesh utilization (red curve).
func BenchmarkFigure6BraidPolicies(b *testing.B) {
	for _, w := range surfcomm.Fig6Suite() {
		for _, p := range surfcomm.AllBraidPolicies {
			w, p := w, p
			b.Run(fmt.Sprintf("%s/%s", w.Name, p), func(b *testing.B) {
				var r surfcomm.BraidResult
				var err error
				for i := 0; i < b.N; i++ {
					r, err = braid.SimulateContext(context.Background(), w.Circuit, p, braid.Config{Distance: 9, Seed: 1})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(r.Ratio, "ratio")
				b.ReportMetric(100*r.AvgUtilization, "util%")
			})
		}
	}
}

// referenceModels caches the characterized suite across figure benches.
// Toolchain.Models fans the characterization cells across the worker
// pool; the result is identical to the serial surfcomm.ReferenceModels(1).
var referenceModels = sync.OnceValues(func() ([]surfcomm.AppModel, error) {
	tc, err := surfcomm.NewToolchain()
	if err != nil {
		return nil, err
	}
	return tc.Models(context.Background())
})

// BenchmarkFigure7Scaling regenerates the Figure 7 series: absolute
// time and physical-qubit usage for the SQ application across
// computation sizes at p_P = 1e-8.
func BenchmarkFigure7Scaling(b *testing.B) {
	models, err := referenceModels()
	if err != nil {
		b.Fatal(err)
	}
	m, err := surfcomm.ModelFor(models, "SQ")
	if err != nil {
		b.Fatal(err)
	}
	var pts []surfcomm.DesignPoint
	for i := 0; i < b.N; i++ {
		pts, err = surfcomm.Curve(m, 1e-8, 0, 24, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	first, last := pts[0], pts[len(pts)-1]
	if last.PlanarSeconds <= first.PlanarSeconds || last.DDSeconds <= first.DDSeconds {
		b.Fatal("time must grow with computation size")
	}
	b.ReportMetric(first.PlanarSeconds, "planar-sec-K1")
	b.ReportMetric(last.PlanarSeconds, "planar-sec-K1e24")
	b.ReportMetric(first.PlanarQubits, "planar-qubits-K1")
	b.ReportMetric(last.PlanarQubits, "planar-qubits-K1e24")
}

// BenchmarkFigure8Crossover regenerates the Figure 8 ratio curves and
// crossover points for the serial SQ and parallel IM applications.
func BenchmarkFigure8Crossover(b *testing.B) {
	models, err := referenceModels()
	if err != nil {
		b.Fatal(err)
	}
	// The paper evaluates at p_P=1e-8; our crossover ordering is
	// cleanest at 1e-4 (EXPERIMENTS.md discusses the deviation), so the
	// bench reports both.
	for _, pp := range []float64{1e-8, 1e-4} {
		for _, name := range []string{"SQ", "IM_Fully_Inlined"} {
			name, pp := name, pp
			b.Run(fmt.Sprintf("%s/pp=%.0e", name, pp), func(b *testing.B) {
				m, err := surfcomm.ModelFor(models, name)
				if err != nil {
					b.Fatal(err)
				}
				var k float64
				var ok bool
				for i := 0; i < b.N; i++ {
					k, ok = surfcomm.Crossover(m, pp)
				}
				if ok {
					b.ReportMetric(k, "crossover-K")
				} else {
					b.ReportMetric(-1, "crossover-K")
				}
				dp, err := surfcomm.Evaluate(m, 100, pp)
				if err != nil {
					b.Fatal(err)
				}
				if dp.SpaceTimeRatio <= 1 {
					b.Fatalf("planar must be favored at small K, got ratio %.2f", dp.SpaceTimeRatio)
				}
				b.ReportMetric(dp.SpaceTimeRatio, "ratio-at-K100")
			})
		}
	}
}

// BenchmarkFigure9Boundary regenerates the Figure 9 boundary lines:
// crossover computation size across physical error rates per app.
func BenchmarkFigure9Boundary(b *testing.B) {
	models, err := referenceModels()
	if err != nil {
		b.Fatal(err)
	}
	rates := surfcomm.Figure9ErrorRates()
	for _, m := range models {
		m := m
		b.Run(m.Name, func(b *testing.B) {
			b.ReportAllocs()
			var pts []surfcomm.BoundaryPoint
			for i := 0; i < b.N; i++ {
				pts = surfcomm.Boundary(m, rates)
			}
			// Report the boundary endpoints (1e-8 and 1e-3).
			lo, hi := pts[0], pts[len(pts)-1]
			metric := func(p surfcomm.BoundaryPoint) float64 {
				if p.OffChart {
					return -1
				}
				return p.CrossoverOps
			}
			b.ReportMetric(metric(lo), "K*-at-1e-8")
			b.ReportMetric(metric(hi), "K*-at-1e-3")
		})
	}
}

// BenchmarkSection81EPRWindow regenerates the §8.1 study: live-EPR
// savings and latency overhead of just-in-time distribution versus
// prefetch-all, per application.
func BenchmarkSection81EPRWindow(b *testing.B) {
	for _, w := range surfcomm.Fig6Suite() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			b.ReportAllocs()
			regions := 4
			if w.Circuit.NumQubits > 128 {
				regions = 16 // bigger machines get the full checkerboard
			}
			width := 32
			if perBank := (w.Circuit.NumQubits + regions - 1) / regions; perBank > width {
				width = perBank
			}
			sched, err := simd.RunContext(context.Background(), w.Circuit, simd.Config{Regions: regions, Width: width, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			cfg := surfcomm.TeleportConfig{Distance: 9}
			jit := surfcomm.JITWindow(sched, cfg)
			dist := surfcomm.NewEPRDistributor() // reused: steady state is allocation-free
			var jitRes, flood surfcomm.TeleportResult
			for i := 0; i < b.N; i++ {
				jitRes, err = dist.DistributeContext(context.Background(), sched, jit, cfg)
				if err != nil {
					b.Fatal(err)
				}
				flood, err = dist.DistributeContext(context.Background(), sched, surfcomm.PrefetchAll, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			if len(sched.Moves) == 0 {
				b.Skip("no moves")
			}
			savings := float64(flood.PeakLiveEPR) / float64(max(1, jitRes.PeakLiveEPR))
			b.ReportMetric(savings, "epr-savings-x")
			b.ReportMetric(100*jitRes.LatencyOverhead, "latency-overhead%")
		})
	}
}

// BenchmarkSweepFigure6Grid measures the Figure 6 study — every
// (application × policy) braid compile of the grid — on one worker and
// on GOMAXPROCS workers side by side. Every run's records are checked
// byte for byte against a serial run, so the speedup is pure
// scheduling.
func BenchmarkSweepFigure6Grid(b *testing.B) {
	run := func(workers int) []byte {
		tc, err := surfcomm.NewToolchain(surfcomm.WithWorkers(workers))
		if err != nil {
			b.Fatal(err)
		}
		recs, err := tc.RunStudies(context.Background(), []string{"fig6"}, surfcomm.StudyParams{}, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		out, err := json.Marshal(recs)
		if err != nil {
			b.Fatal(err)
		}
		return out
	}
	serial := run(1)
	cells := len(surfcomm.Fig6Suite()) * len(surfcomm.AllBraidPolicies)
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := run(workers); !bytes.Equal(got, serial) {
					b.Fatalf("records diverged from the serial run:\n%s\nvs\n%s", got, serial)
				}
			}
			b.ReportMetric(float64(cells), "cells")
		})
	}
}

// BenchmarkAblationLocalTOps isolates the contribution of magic-state
// traffic to braid congestion: the paper's §4.3 communication pressure.
func BenchmarkAblationLocalTOps(b *testing.B) {
	im := must(surfcomm.NewIsing(surfcomm.IsingConfig{N: 64, Steps: 2}, true))
	for _, local := range []bool{false, true} {
		local := local
		name := "with-magic-traffic"
		if local {
			name = "local-t-ablation"
		}
		b.Run(name, func(b *testing.B) {
			var r surfcomm.BraidResult
			var err error
			for i := 0; i < b.N; i++ {
				r, err = braid.SimulateContext(context.Background(), im, braid.Policy6,
					braid.Config{Distance: 9, Seed: 1, LocalTOps: local})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.Ratio, "ratio")
			b.ReportMetric(float64(r.ScheduleCycles), "cycles")
		})
	}
}

// BenchmarkAblationLayout isolates the mapping-level optimization
// (§6.2): Policy 1 (interleaving, naive layout) vs Policy 2
// (interleaving + interaction-aware layout).
func BenchmarkAblationLayout(b *testing.B) {
	sha := must(surfcomm.NewSHA1(surfcomm.SHA1Config{Rounds: 1, WordWidth: 16}))
	for _, p := range []surfcomm.BraidPolicy{surfcomm.Policy1, surfcomm.Policy2} {
		p := p
		b.Run(p.String(), func(b *testing.B) {
			var r surfcomm.BraidResult
			var err error
			for i := 0; i < b.N; i++ {
				r, err = braid.SimulateContext(context.Background(), sha, p, braid.Config{Distance: 9, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.Ratio, "ratio")
		})
	}
}

// BenchmarkErrorModelValidation grounds the analytic p_L(d) model in
// Monte Carlo decoding: below threshold, each distance step suppresses
// the measured logical rate (paper §2.3's matching machinery). Trials
// decode across the worker pool with reusable per-worker scratch; the
// reported pL is bit-identical to a serial run.
func BenchmarkErrorModelValidation(b *testing.B) {
	const p = 0.03
	const trials = 1200
	tc, err := surfcomm.NewToolchain(surfcomm.WithSeed(7))
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range []int{3, 5, 7} {
		d := d
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			var r surfcomm.DecoderResult
			var err error
			for i := 0; i < b.N; i++ {
				r, err = tc.MeasureLogicalErrorRate(context.Background(), d, p, trials)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.LogicalRate, "pL")
		})
	}
}

// BenchmarkExtensionLatticeSurgery quantifies the paper's §8.2 claim
// that merge/split chains have neither braiding's speed nor
// teleportation's prefetchability: surgery's space-time product
// relative to both baselines, across the design space.
func BenchmarkExtensionLatticeSurgery(b *testing.B) {
	models, err := referenceModels()
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"GSE", "IM_Fully_Inlined"} {
		name := name
		b.Run(name, func(b *testing.B) {
			m, err := surfcomm.ModelFor(models, name)
			if err != nil {
				b.Fatal(err)
			}
			var sp surfcomm.SurgeryPoint
			for i := 0; i < b.N; i++ {
				sp, err = surfcomm.EvaluateSurgery(m, 1e10, 1e-5)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(sp.SurgeryVsPlanar, "vs-planar")
			b.ReportMetric(sp.SurgeryVsDD, "vs-dd")
		})
	}
}

// BenchmarkAblationFactoryRefill sweeps the factory-port recovery time,
// the space-time lever of the paper's §4.3 factory sizing discussion.
func BenchmarkAblationFactoryRefill(b *testing.B) {
	im := must(surfcomm.NewIsing(surfcomm.IsingConfig{N: 64, Steps: 2}, true))
	for _, refill := range []int64{1, 9, 27} {
		refill := refill
		b.Run(fmt.Sprintf("refill=%d", refill), func(b *testing.B) {
			var r surfcomm.BraidResult
			var err error
			for i := 0; i < b.N; i++ {
				r, err = braid.SimulateContext(context.Background(), im, braid.Policy6,
					braid.Config{Distance: 9, Seed: 1, FactoryRefill: refill})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.Ratio, "ratio")
		})
	}
}

// BenchmarkIncrementalRecompile measures the tentpole incremental
// claim end-to-end: each iteration edits one leaf of a warm 8-stage
// pipeline and recompiles through the module cache, so exactly one
// module reaches the backend per iteration. Compare against
// BenchmarkMonolithicRecompile — the same edit loop priced as full
// flatten-and-recompile. The allocation profile tracks the
// digest/stitch hot path.
func BenchmarkIncrementalRecompile(b *testing.B) {
	ctx := context.Background()
	tc, err := surfcomm.NewToolchain(surfcomm.WithModular(), surfcomm.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	p, err := surfcomm.PipelineProgram(8)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tc.CompileIncremental(ctx, surfcomm.BraidBackend{}, p); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var plan surfcomm.Plan
	for i := 0; i < b.N; i++ {
		v, err := surfcomm.MutateModule(p, "stagee", i+1)
		if err != nil {
			b.Fatal(err)
		}
		if plan, err = tc.CompileIncremental(ctx, surfcomm.BraidBackend{}, v); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(plan.Modular.Compiled)), "modules-recompiled")
	b.ReportMetric(float64(plan.Modular.Hits), "module-cache-hits")
}

// BenchmarkMonolithicRecompile is the baseline the incremental path is
// judged against: the same one-leaf edit loop, but every iteration
// flattens the whole program and recompiles it from scratch.
func BenchmarkMonolithicRecompile(b *testing.B) {
	ctx := context.Background()
	tc, err := surfcomm.NewToolchain(surfcomm.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	p, err := surfcomm.PipelineProgram(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := surfcomm.MutateModule(p, "stagee", i+1)
		if err != nil {
			b.Fatal(err)
		}
		flat, err := v.Flatten(surfcomm.InlineAll)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tc.Compile(ctx, surfcomm.BraidBackend{}, flat); err != nil {
			b.Fatal(err)
		}
	}
}
