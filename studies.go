package surfcomm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"surfcomm/internal/decoder"
	"surfcomm/internal/modcompile"
	"surfcomm/internal/resource"
	"surfcomm/internal/scerr"
	"surfcomm/internal/sweep"
	"surfcomm/internal/teleport"
	"surfcomm/internal/toolflow"
)

// The registered studies, in registry order. Each one enumerates its
// cells and labels them, evaluates them with sweep.Map on the
// toolchain's pool, then prints its table and records its cells from
// the cells' Plans, BraidResults or DecoderResults. Compiling cells go
// through the Backends at the study's own target (Toolchain.studyTarget,
// which characterization compiles at too).

// Values the studies fix by design, whatever the toolchain's options.
const (
	// Table 1 measures at the paper's d = 9 under Policy 1.
	table1Distance = 9
	table1Policy   = Policy1
	// studyTrials is the number of independent device realizations per
	// yield fraction and per calib topology.
	studyTrials = 2
	// calibDefectEvents is the number of live coupler deaths per calib
	// defect cell.
	calibDefectEvents = 3
	// calibPhysicalError is the calib study's uniform p_P baseline:
	// calibration-scale error rates, so per-tile spreads are visible.
	calibPhysicalError = 1e-3
	// The calib study's coupling patterns.
	calibSquare   = "square"
	calibHeavyHex = "heavy-hex"
	// curveDecades is the K axis of Figures 7–8: one point per decade
	// from K = 1 to 1e24.
	curveDecades = 24
	// The decode study's trial counts, and the rate its work-op
	// crossover is measured at.
	decodeParityTrials  = 400
	decodeCrossTrials   = 60
	decodeCrossoverRate = 0.08
	// modularWallReps is the best-of count of the modular study's
	// wall-clock probes.
	modularWallReps = 5
)

// The grid axes the studies fix by design.
var (
	yieldFractions        = []float64{0, 0.02, 0.05}
	decodeParityDistances = []int{3, 5, 7}
	decodeParityRates     = []float64{0.03, 0.05, 0.08}
	decodeCrossDistances  = []int{9, 13, 17}
	modularSizes          = []int{2, 4, 8, 16}
)

// table1Row is one communication method's measured latencies.
type table1Row struct{ near, far, prefetched int64 }

// runTable1 measures the defining properties of the two communication
// methods: braid latency is distance-independent (low time) but braids
// claim whole routes and bigger tiles (high space, not prefetchable);
// teleportation transit grows with distance (high time) but vanishes
// under EPR prefetch.
func runTable1(ctx context.Context, s *studyRun) error {
	const d = table1Distance
	labels := []string{"teleportation", "braiding"}
	measure := []func() (table1Row, error){
		func() (table1Row, error) { return table1Teleport(ctx) },
		func() (table1Row, error) { return table1Braid(ctx, s) },
	}
	rows, err := sweep.Map(ctx, s.opts(labels), measure, func(_ int, m func() (table1Row, error)) (table1Row, error) {
		return m()
	})
	if err != nil {
		return err
	}
	tele, br := rows[0], rows[1]
	s.printf("Table 1: communication-method tradeoffs (measured, d = %d)\n", d)
	s.println("----------------------------------------------------------------------")
	s.printf("%-14s %-22s %-28s %s\n", "Method", "Space (qubits/tile)", "Time (EC cycles)", "Prefetchable?")
	s.printf("%-14s %-22d transit near=%-3d far=%-6d yes (JIT stall=%d)\n",
		"Teleportation", PlanarTileQubits(d), tele.near, tele.far, tele.prefetched)
	s.printf("%-14s %-22d braid   near=%-3d far=%-6d no (claims whole route)\n",
		"Braiding", DoubleDefectTileQubits(d), br.near, br.far)
	s.println()
	s.println("Planar/teleport: low space, distance-dependent latency, prefetchable.")
	s.println("Double-defect/braid: high space, distance-independent latency, not prefetchable.")

	// Tables 1–2 predate the record's device field and leave it empty.
	s.record("table1", labels[0], map[string]float64{
		"tile_qubits": float64(PlanarTileQubits(d)),
		"near_cycles": float64(tele.near),
		"far_cycles":  float64(tele.far),
		"jit_stall":   float64(tele.prefetched),
	}).Device = ""
	s.record("table1", labels[1], map[string]float64{
		"tile_qubits": float64(DoubleDefectTileQubits(d)),
		"near_cycles": float64(br.near),
		"far_cycles":  float64(br.far),
	}).Device = ""
	return nil
}

// table1Teleport measures teleportation stalls. The EPR factory sits at
// the bottom-right of the region grid; a "near" pair adjoins it, a
// "far" pair sits at the opposite corner, and prefetch hides the far
// pair's transit.
func table1Teleport(ctx context.Context) (table1Row, error) {
	dist := NewEPRDistributor()
	stall := func(from, to int, window int64) (int64, error) {
		sched := &SIMDSchedule{
			Config:    SIMDConfig{Regions: 16, Width: 8},
			Timesteps: 8,
			Moves:     []SIMDMove{{Timestep: 5, Qubit: 0, From: from, To: to}},
		}
		r, err := dist.DistributeContext(ctx, sched, window, TeleportConfig{Distance: table1Distance})
		return r.StallCycles, err
	}
	var row table1Row
	var err error
	if row.near, err = stall(14, 15, 0); err != nil {
		return row, err
	}
	if row.far, err = stall(0, 1, 0); err != nil {
		return row, err
	}
	row.prefetched, err = stall(0, 1, PrefetchAll)
	return row, err
}

// table1Braid measures the braid latency of an adjacent and of a far
// CNOT on a row-major layout.
func table1Braid(ctx context.Context, s *studyRun) (table1Row, error) {
	cycles := func(a, b int) (int64, error) {
		const cols = 8
		c := NewCircuit("pair", cols)
		c.Append(OpCNOT, a, b)
		t := s.tc.studyTarget(nil, nil)
		t.Distance, t.Policy, t.Placement = table1Distance, table1Policy, RowMajorPlacement(cols)
		plan, err := BraidBackend{}.Compile(ctx, c, t)
		return plan.Cycles, err
	}
	var row table1Row
	var err error
	if row.near, err = cycles(0, 1); err != nil {
		return row, err
	}
	row.far, err = cycles(0, 7)
	return row, err
}

// runTable2 prints the frontend characterization of the benchmark
// applications with their parallelism factors.
func runTable2(ctx context.Context, s *studyRun) error {
	suite := Table2Suite()
	labels := make([]string, len(suite))
	for i, w := range suite {
		labels[i] = w.Name
	}
	estimates, err := sweep.Map(ctx, s.opts(labels), suite, func(_ int, w Workload) (Estimate, error) {
		return resource.EstimateCircuit(w.Circuit)
	})
	if err != nil {
		return err
	}
	s.println("Table 2: benchmark applications (measured)")
	s.println("------------------------------------------------------------------------------------------")
	s.printf("%-8s %-10s %-10s %-10s %-10s %-12s %s\n",
		"App", "Qubits", "Ops", "T-count", "2q ops", "Depth", "Parallelism")
	for i, e := range estimates {
		s.printf("%-8s %-10d %-10d %-10d %-10d %-12d %.1f\n",
			labels[i], e.LogicalQubits, e.LogicalOps, e.TCount, e.TwoQubitOps, e.CriticalPath, e.Parallelism)
		s.record("table2", labels[i], map[string]float64{
			"qubits":      float64(e.LogicalQubits),
			"ops":         float64(e.LogicalOps),
			"t_count":     float64(e.TCount),
			"two_q_ops":   float64(e.TwoQubitOps),
			"depth":       float64(e.CriticalPath),
			"parallelism": e.Parallelism,
		}).Device = ""
	}
	s.println()
	s.println("Paper's parallelism factors: GSE 1.2, SQ 1.5, SHA-1 29, IM 66.")
	return nil
}

// runFigure6 prints the Figure 6 grid: the braid schedule-length to
// critical-path ratio (the paper's blue bars), average mesh utilization
// (the red curve), and the engine's placement counters. With Verify,
// every cell's recorded static schedule is replay-validated, and only
// its entry count outlives the cell.
func runFigure6(ctx context.Context, s *studyRun) error {
	suite, err := studyApps(s.p.App)
	if err != nil {
		return err
	}
	type cell struct {
		w      Workload
		policy BraidPolicy
	}
	var cells []cell
	var labels []string
	for _, w := range suite {
		for _, p := range AllBraidPolicies {
			cells = append(cells, cell{w, p})
			labels = append(labels, fmt.Sprintf("%s/policy%d", w.Name, int(p)))
		}
	}
	replayed := make([]int, len(cells))
	results, err := sweep.Map(ctx, s.opts(labels), cells, func(i int, c cell) (*BraidResult, error) {
		t := s.tc.studyTarget(nil, nil)
		t.Policy, t.RecordSchedule = c.policy, s.p.Verify
		plan, err := BraidBackend{}.Compile(ctx, c.w.Circuit, t)
		if err != nil {
			return nil, fmt.Errorf("study: %s: %w", labels[i], err)
		}
		r := plan.Braid
		if s.p.Verify {
			if err := ReplayBraidSchedule(c.w.Circuit, r.Arch, r.Schedule); err != nil {
				return nil, fmt.Errorf("study: %s: replay validation failed: %w", labels[i], err)
			}
			replayed[i], r.Schedule = len(r.Schedule), nil
		}
		return r, nil
	})
	if err != nil {
		return err
	}
	rule := strings.Repeat("-", 84)
	s.printf("Figure 6: braid schedule / critical path and mesh utilization (d=%d)\n", s.tc.distance)
	s.println(rule)
	s.printf("%-8s %-10s %12s %12s %10s %10s %10s\n",
		"App", "Policy", "ratio", "util %", "braids", "adaptive", "reinject")
	for i, r := range results {
		app := cells[i].w.Name
		if i > 0 && app != cells[i-1].w.Name {
			s.println(rule)
		}
		status := ""
		if s.p.Verify {
			status = fmt.Sprintf("  replay-ok (%d entries)", replayed[i])
		}
		s.printf("%-8s Policy %-3d %12.2f %12.1f %10d %10d %10d%s\n",
			app, int(cells[i].policy), r.Ratio, 100*r.AvgUtilization, r.BraidsPlaced, r.AdaptiveRoutes, r.Reinjections, status)
		s.record("figure6", labels[i], map[string]float64{
			"ratio":  r.Ratio,
			"util":   r.AvgUtilization,
			"cycles": float64(r.ScheduleCycles),
		})
	}
	s.println(rule)
	s.println("Paper: parallel apps (SHA-1, IM) start up to ~12x above the critical path and")
	s.println("policies recover up to ~7x, while serial apps are near-critical-path throughout;")
	s.println("utilization rises with policy sophistication (up to ~22%).")
	return nil
}

// curve evaluates one model's Figures 7–8 K sweep at the toolchain's
// technology and records each point under study.
func (s *studyRun) curve(ctx context.Context, study string, m AppModel) ([]DesignPoint, error) {
	pp := s.tc.tech.PhysicalErrorRate
	labels := make([]string, curveDecades+1)
	for i := range labels {
		// Point i of a one-per-decade curve from K = 1 is K = 10^i.
		labels[i] = fmt.Sprintf("%s/K=%.1e/pp=%.0e", m.Name, math.Pow(10, float64(i)), pp)
	}
	pts, err := sweep.Map(ctx, s.opts(labels), labels, func(i int, _ string) (DesignPoint, error) {
		return toolflow.CurvePoint(m, pp, i, 1)
	})
	if err != nil {
		return nil, err
	}
	for i, dp := range pts {
		s.record(study, labels[i], map[string]float64{
			"distance":         float64(dp.Distance),
			"planar_seconds":   dp.PlanarSeconds,
			"dd_seconds":       dp.DDSeconds,
			"planar_qubits":    dp.PlanarQubits,
			"dd_qubits":        dp.DDQubits,
			"space_time_ratio": dp.SpaceTimeRatio,
		})
	}
	return pts, nil
}

func runFigure7(ctx context.Context, s *studyRun) error {
	m, err := ModelFor(s.models, "SQ")
	if err != nil {
		return err
	}
	pts, err := s.curve(ctx, "figure7", m)
	if err != nil {
		return err
	}
	s.printf("Figure 7: absolute resource usage, SQ application (p_P=%.0e)\n", s.tc.tech.PhysicalErrorRate)
	s.println(strings.Repeat("-", 86))
	s.printf("%-10s %4s %14s %14s %14s %14s\n",
		"K (1/p_L)", "d", "planar sec", "dd sec", "planar qubits", "dd qubits")
	for i, dp := range pts {
		if i%2 != 0 {
			continue
		}
		s.printf("%-10.1e %4d %14.3e %14.3e %14.3e %14.3e\n",
			dp.TotalOps, dp.Distance, dp.PlanarSeconds, dp.DDSeconds, dp.PlanarQubits, dp.DDQubits)
	}
	s.println("Paper: small instances run in under a second; ~1000 physical qubits for modest sizes.")
	return nil
}

func runFigure8(ctx context.Context, s *studyRun) error {
	pp := s.tc.tech.PhysicalErrorRate
	for _, name := range []string{"SQ", "IM_Fully_Inlined"} {
		m, err := ModelFor(s.models, name)
		if err != nil {
			return err
		}
		pts, err := s.curve(ctx, "figure8", m)
		if err != nil {
			return err
		}
		s.printf("Figure 8: double-defect relative to planar, %s (p_P=%.0e)\n", name, pp)
		s.println(strings.Repeat("-", 64))
		s.printf("%-10s %4s %10s %10s %12s\n", "K (1/p_L)", "d", "qubits", "time", "qubits*time")
		for i, dp := range pts {
			if i%2 != 0 {
				continue
			}
			s.printf("%-10.1e %4d %10.2f %10.3f %12.3f\n",
				dp.TotalOps, dp.Distance, dp.QubitsRatio, dp.TimeRatio, dp.SpaceTimeRatio)
		}
		if k, ok := Crossover(m, pp); ok {
			s.printf("crossover: double-defect favored beyond K ~= %.1e\n", k)
		} else {
			s.println("crossover: planar favored across the full 1e0..1e24 range")
		}
		s.println()
	}
	s.println("Paper: planar better at small sizes; crossover occurs much later for the")
	s.println("parallel IM than for the serial SQ (congestion hurts braids more).")
	return nil
}

func runFigure9(ctx context.Context, s *studyRun) error {
	rates := Figure9ErrorRates()
	var labels []string
	for _, m := range s.models {
		for _, r := range rates {
			labels = append(labels, fmt.Sprintf("%s/pp=%.1e", m.Name, r))
		}
	}
	pts, err := sweep.Map(ctx, s.opts(labels), labels, func(i int, _ string) (BoundaryPoint, error) {
		return toolflow.BoundaryAt(s.models[i/len(rates)], rates[i%len(rates)]), nil
	})
	if err != nil {
		return err
	}
	s.println("Figure 9: crossover boundary K*(p_P) per application")
	s.println("(design points under the boundary favor planar codes)")
	s.println(strings.Repeat("-", 30+12*len(rates)))
	s.printf("%-18s", "p_P:")
	for _, r := range rates {
		s.printf(" %10.0e", r)
	}
	s.println()
	for mi, m := range s.models {
		s.printf("%-18s", m.Name)
		for i := mi * len(rates); i < (mi+1)*len(rates); i++ {
			// Off-chart points — planar favored across the whole K
			// range — record the -1 sentinel.
			k := -1.0
			if pts[i].OffChart {
				s.printf(" %10s", ">1e24")
			} else {
				k = pts[i].CrossoverOps
				s.printf(" %10.1e", k)
			}
			s.record("figure9", labels[i], map[string]float64{"crossover_k": k})
		}
		s.println()
	}
	s.println("Paper: boundaries fall as devices get faultier and sit higher for more")
	s.println("parallel applications.")
	return nil
}

// runEPR is the §8.1 window study: each application compiles once
// through the planar backend, whose distribution runs at the JIT window,
// then its SIMD schedule is distributed again at look-ahead windows
// around that JIT window.
func runEPR(ctx context.Context, s *studyRun) error {
	suite := Fig6Suite()
	labels := make([]string, len(suite))
	for i, w := range suite {
		labels[i] = w.Name
	}
	type cell struct {
		plan Plan
		rows []TeleportResult
	}
	cells, err := sweep.Map(ctx, s.opts(labels), suite, func(_ int, w Workload) (cell, error) {
		plan, err := PlanarBackend{}.Compile(ctx, w.Circuit, s.tc.studyTarget(nil, nil))
		if err != nil {
			return cell{}, err
		}
		jit := plan.EPR.WindowCycles
		windows := []int64{0, jit / 4, jit / 2, jit, 2 * jit, 8 * jit, PrefetchAll}
		rows, err := teleport.SweepWindowsContext(ctx, plan.SIMD, windows, TeleportConfig{Distance: s.tc.distance})
		return cell{plan, rows}, err
	})
	if err != nil {
		return err
	}
	s.println("§8.1: pipelined EPR distribution — look-ahead window sweep")
	for i, c := range cells {
		s.printf("\n%s (%d moves, %d timesteps)\n", labels[i], len(c.plan.SIMD.Moves), c.plan.SIMD.Timesteps)
		s.printf("%-14s %12s %12s %12s\n", "window", "peak live", "stall cyc", "overhead %")
		for _, r := range c.rows {
			window := "prefetch-all"
			if r.WindowCycles != PrefetchAll {
				window = strconv.FormatInt(r.WindowCycles, 10)
			}
			s.printf("%-14s %12d %12d %12.1f\n", window, r.PeakLiveEPR, r.StallCycles, 100*r.LatencyOverhead)
			s.record("epr", labels[i]+"/window="+window, map[string]float64{
				"peak_live_epr":    float64(r.PeakLiveEPR),
				"stall_cycles":     float64(r.StallCycles),
				"latency_overhead": r.LatencyOverhead,
			})
		}
		flood, jitRes := c.rows[len(c.rows)-1], c.plan.EPR
		if jitRes.PeakLiveEPR > 0 {
			s.printf("JIT vs prefetch-all: %.1fx fewer live EPR qubits at %.1f%% latency overhead\n",
				float64(flood.PeakLiveEPR)/float64(jitRes.PeakLiveEPR), 100*jitRes.LatencyOverhead)
		}
	}
	s.println("\nPaper: up to ~24x qubit savings at <= ~4% extra latency.")
	return nil
}

// decoderLabel names a (distance, physical rate) decoding cell.
func decoderLabel(d int, p float64) string { return fmt.Sprintf("d=%d/p=%.2e", d, p) }

// decodeGrid measures the logical error rate of every cell of a
// distance-major (distance × rate) grid under strategy, labelling each
// cell with its distance, rate and strategy name. Cell i runs its Monte
// Carlo serially (the grid itself fans across the pool) at
// CellSeed(seed, i), so the grid is bit-identical at any worker count.
func (s *studyRun) decodeGrid(ctx context.Context, distances []int, rates []float64, trials int, strategy decoder.Strategy) ([]DecoderResult, []string, error) {
	type cell struct {
		d int
		p float64
	}
	var cells []cell
	var labels []string
	for _, d := range distances {
		for _, p := range rates {
			cells = append(cells, cell{d, p})
			labels = append(labels, decoderLabel(d, p)+"/"+strategy.Name())
		}
	}
	results, err := sweep.Map(ctx, s.opts(labels), cells, func(i int, c cell) (DecoderResult, error) {
		cfg := decoder.Config{Workers: 1, Strategy: strategy}
		return measureLogicalRate(ctx, c.d, c.p, trials, CellSeed(s.tc.seed, i), cfg)
	})
	return results, labels, err
}

// runDecode is the §2.3 decoding study behind BENCH_decode.json: it
// counts code-capacity logical failures and decoder work-ops for each
// strategy on parity cells at small distances (the same per-cell seeds
// for both strategies, so the failure counts compare directly) and on a
// work-op curve at the crossover rate out to d=17, from which it
// derives the union-find crossover distance. Work-ops — not wall clock
// — are recorded so the artifact is byte-identical on any machine.
func runDecode(ctx context.Context, s *studyRun) error {
	grids := []struct {
		distances []int
		rates     []float64
		trials    int
	}{
		{decodeParityDistances, decodeParityRates, decodeParityTrials},
		{decodeCrossDistances, []float64{decodeCrossoverRate}, decodeCrossTrials},
	}
	// ops[strategy][d] is the work-ops per trial at the crossover rate.
	ops := map[string]map[int]float64{}
	s.println("§2.3: code-capacity decoding, failures and work-ops per strategy")
	s.println(strings.Repeat("-", 72))
	s.printf("%-10s %-6s %10s %10s %12s %14s\n", "strategy", "d", "p", "failures", "trials", "workops/trial")
	for _, name := range []string{DecoderStrategyMWPM, DecoderStrategyUnionFind} {
		strategy, err := decoder.StrategyByName(name)
		if err != nil {
			return err
		}
		ops[name] = map[int]float64{}
		for _, g := range grids {
			results, labels, err := s.decodeGrid(ctx, g.distances, g.rates, g.trials, strategy)
			if err != nil {
				return err
			}
			for i, r := range results {
				perTrial := float64(r.WorkOps) / float64(r.Trials)
				if r.PhysicalRate == decodeCrossoverRate {
					ops[name][r.Distance] = perTrial
				}
				s.printf("%-10s %-6d %10.2f %10d %12d %14.1f\n",
					name, r.Distance, r.PhysicalRate, r.Failures, r.Trials, perTrial)
				rec := s.record("decode", labels[i], map[string]float64{
					"failures":          float64(r.Failures),
					"logical_rate":      r.LogicalRate,
					"trials":            float64(r.Trials),
					"workops":           float64(r.WorkOps),
					"workops_per_trial": perTrial,
				})
				rec.Seed, rec.Strategy = CellSeed(s.tc.seed, i), name
			}
		}
	}

	// Crossover: the smallest distance from which union-find stays
	// cheaper than the matcher for every larger measured distance.
	curve := slices.Concat(decodeParityDistances, decodeCrossDistances)
	crossover := -1
	for i := len(curve) - 1; i >= 0; i-- {
		d := curve[i]
		if ops[DecoderStrategyUnionFind][d] >= ops[DecoderStrategyMWPM][d] {
			break
		}
		crossover = d
	}
	s.record("decode", fmt.Sprintf("crossover/p=%.2e", decodeCrossoverRate),
		map[string]float64{"crossover_distance": float64(crossover)}).Strategy = DecoderStrategyUnionFind
	if crossover >= 0 {
		s.printf("crossover: unionfind cheaper than mwpm from d=%d on (p=%.2f, work-ops/trial)\n", crossover, decodeCrossoverRate)
	} else {
		s.printf("crossover: mwpm cheaper across the measured range (p=%.2f)\n", decodeCrossoverRate)
	}
	return nil
}

// runModular is the incremental-compilation study behind
// BENCH_modular.json: for each pipeline size N it compiles the N-stage
// hierarchical workload three ways — monolithic (flatten + full
// compile), cold incremental (every module dirty), and warm incremental
// after a one-leaf edit — and records how much compilation the module
// cache saved.
//
// Two metric families live in each cell:
//
//   - deterministic fields (module counts, cache hits, work-op totals,
//     stitch diagnostics, speedup_work) are pure functions of the
//     program and seed, byte-identical on any machine;
//   - wall_* fields (wall_mono_ms, wall_incr_ms, wall_speedup) are
//     measured on the machine that runs the study, so artifact checks
//     strip them before comparing.
//
// Work-ops are resource-bearing gate counts fed to the backend: the
// monolithic path compiles the whole flattened program every edit, the
// incremental path recompiles only the edited module.
func runModular(ctx context.Context, s *studyRun) error {
	labels := make([]string, len(modularSizes))
	for i, n := range modularSizes {
		labels[i] = fmt.Sprintf("pipeline/N=%d", n)
	}
	opt := s.opts(labels)
	opt.Workers = 1 // concurrent cells would skew each other's wall-clock probes
	cells, err := sweep.Map(ctx, opt, modularSizes, func(_ int, n int) (map[string]float64, error) {
		return modularCell(ctx, s.tc, n)
	})
	if err != nil {
		return err
	}
	s.println("Hierarchical incremental compilation: monolithic vs per-module caching")
	s.println(strings.Repeat("-", 78))
	s.printf("%-6s %8s %10s %10s %10s %10s %12s\n",
		"N", "modules", "work mono", "work incr", "speedup", "phases", "wall speedup")
	for i, m := range cells {
		s.printf("%-6d %8.0f %10.0f %10.0f %9.1fx %10.0f %11.1fx\n",
			modularSizes[i], m["modules"], m["work_mono"], m["work_incr"], m["speedup_work"],
			m["stitch_phases"], m["wall_speedup"])
		s.record("modular", labels[i], m)
	}
	s.println("Editing one leaf recompiles one module; everything else links from cache.")
	return nil
}

// modularCell measures one pipeline size N of the modular study on
// fresh toolchains with tc's settings.
func modularCell(ctx context.Context, tc *Toolchain, n int) (map[string]float64, error) {
	fresh := func(cache ModuleCache) *Toolchain {
		return &Toolchain{distance: tc.distance, tech: tc.tech, policy: tc.policy, workers: tc.workers,
			seed: tc.seed, modCache: cache, stitchMemo: modcompile.NewStitchMemo()}
	}
	mono, inc := fresh(nil), fresh(newMemoryModuleCache())
	p, err := PipelineProgram(n)
	if err != nil {
		return nil, err
	}
	flat, err := p.Flatten(InlineAll)
	if err != nil {
		return nil, err
	}
	// Cold incremental compile: fills the module cache.
	cold, err := inc.CompileIncremental(ctx, BraidBackend{}, p)
	if err != nil {
		return nil, err
	}
	// The edit-recompile under measurement: one leaf module dirty. The
	// middle leaf matches internal/apps stage naming for N <= 26.
	leaf := "stage" + string(rune('a'+(n/2)%n))
	edited, err := MutateModule(p, leaf, 1)
	if err != nil {
		return nil, err
	}
	warm, err := inc.CompileIncremental(ctx, BraidBackend{}, edited)
	if err != nil {
		return nil, err
	}

	workMono := float64(flat.Ops())
	workIncr := 0.0
	for _, name := range warm.Modular.Compiled {
		for _, in := range edited.Modules[name].Insts {
			if in.Callee == "" && in.Op != OpBarrier {
				workIncr++
			}
		}
	}
	if workIncr == 0 {
		workIncr = 1 // a fully cached recompile still pays the stitch
	}

	wallMono, err := bestOf(modularWallReps, func(int) error {
		_, err := mono.Compile(ctx, BraidBackend{}, flat)
		return err
	})
	if err != nil {
		return nil, err
	}
	// Each rep compiles a distinct pre-built variant so every probe
	// recompiles exactly one module against a warm cache, like a real
	// edit-recompile loop (repeating one variant would hit the cache
	// fully and time nothing). The edits themselves happen outside the
	// timer — editing is not compilation.
	variants := make([]*Program, modularWallReps)
	for rep := range variants {
		if variants[rep], err = MutateModule(p, leaf, 2+rep); err != nil {
			return nil, err
		}
	}
	wallIncr, err := bestOf(modularWallReps, func(rep int) error {
		_, err := inc.CompileIncremental(ctx, BraidBackend{}, variants[rep])
		return err
	})
	if err != nil {
		return nil, err
	}
	metrics := map[string]float64{
		"modules":          float64(len(warm.Modular.Modules)),
		"compiled_cold":    float64(len(cold.Modular.Compiled)),
		"compiled_incr":    float64(len(warm.Modular.Compiled)),
		"module_hits_incr": float64(warm.Modular.Hits),
		"work_mono":        workMono,
		"work_incr":        workIncr,
		"speedup_work":     workMono / workIncr,
		"stitch_phases":    float64(warm.Modular.StitchPhases),
		"cross_braids":     float64(warm.Modular.CrossBraids),
		"cycles":           float64(warm.Cycles),
		"wall_mono_ms":     wallMono,
		"wall_incr_ms":     wallIncr,
	}
	if wallIncr > 0 {
		metrics["wall_speedup"] = wallMono / wallIncr
	}
	return metrics, nil
}

// bestOf runs fn reps times and returns the fastest wall time in
// milliseconds (best-of filters scheduler noise without averaging in
// cold-start outliers).
func bestOf(reps int, fn func(rep int) error) (float64, error) {
	best := 0.0
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		if err := fn(rep); err != nil {
			return 0, err
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		if rep == 0 || ms < best {
			best = ms
		}
	}
	return best, nil
}

// runYield is the communication-yield study: the braid backend compiled
// across defective devices (defect fraction × independent
// realizations), reporting schedule latency and logical error rate per
// cell. Cell i realizes its device from CellSeed(seed, i); unroutable
// realizations are recorded, not fatal.
func runYield(ctx context.Context, s *studyRun) error {
	w, err := s.app()
	if err != nil {
		return err
	}
	fracs := s.p.Fractions
	if len(fracs) == 0 {
		fracs = yieldFractions
	}
	for _, f := range fracs {
		if !(f >= 0 && f < 1) {
			return scerr.BadConfig("study: defect fraction %g outside [0,1)", f)
		}
	}
	type cell struct {
		frac  float64
		trial int
		seed  int64
		dev   *Device
	}
	var cells []cell
	var labels []string
	for _, f := range fracs {
		for t := 0; t < studyTrials; t++ {
			seed := CellSeed(s.tc.seed, len(cells))
			dev := RandomYieldDevice(f, seed)
			if s.p.Clustered {
				dev = ClusteredDefectsDevice(f, seed)
			}
			cells = append(cells, cell{f, t, seed, dev})
			labels = append(labels, fmt.Sprintf("%s/p=%g/trial%d", w.Name, f, t))
		}
	}
	results, err := sweep.Map(ctx, s.opts(labels), cells, func(i int, c cell) (*BraidResult, error) {
		return s.compileOn(ctx, w, c.dev, nil, labels[i])
	})
	if err != nil {
		return err
	}
	perCycle := s.tc.tech.LogicalErrorPerCycle(s.tc.distance)
	s.println("Communication yield: braid compiles on defective devices")
	s.println(strings.Repeat("-", 78))
	s.printf("%-8s %8s %6s %12s %8s %10s %12s\n",
		"App", "p", "trial", "cycles", "ratio", "adaptive", "p_L(sched)")
	for i, r := range results {
		c := cells[i]
		unroutable, logicalRate := 0.0, 0.0
		if r == nil {
			unroutable, r = 1, &BraidResult{}
			s.printf("%-8s %8g %6d %12s\n", w.Name, c.frac, c.trial, "unroutable")
		} else {
			logicalRate = resource.ScheduleLogicalRate(r.Tiles, r.ScheduleCycles, perCycle)
			s.printf("%-8s %8g %6d %12d %8.3f %10d %12.3e\n",
				w.Name, c.frac, c.trial, r.ScheduleCycles, r.Ratio, r.AdaptiveRoutes, logicalRate)
		}
		rec := s.record("yield", labels[i], map[string]float64{
			"cycles":       float64(r.ScheduleCycles),
			"ratio":        r.Ratio,
			"adaptive":     float64(r.AdaptiveRoutes),
			"tiles":        float64(r.Tiles),
			"logical_rate": logicalRate,
			"unroutable":   unroutable,
		})
		rec.Seed, rec.Device = c.seed, c.dev.String()
	}
	s.println("Defects stretch schedules (dimension-ordered routes detour via BFS) until")
	s.println("the fabric disconnects and compiles fail fast with ErrUnroutable.")
	return nil
}

// runCalib is the calibration study: square vs. heavy-hex coupling,
// uniform vs. calibrated devices, and live-defect survival, compiled
// through the braid backend. A pre-pass compiles the workload once on
// the perfect square device to learn the junction-grid dimensions, which
// every cell shares (neither heavy-hex nor calibration kills tiles), and
// the baseline schedule length that scales the defect-event horizon.
// Cell i realizes its device from CellSeed(seed, i); calibrated cells
// run under StudyParams.Calibration, or under a synthetic per-cell
// snapshot when it is nil.
func runCalib(ctx context.Context, s *studyRun) error {
	w, err := s.app()
	if err != nil {
		return err
	}
	pre := s.tc.studyTarget(nil, nil)
	pre.RecordSchedule = true // only to learn the floorplan dims
	base, err := BraidBackend{}.Compile(ctx, w.Circuit, pre)
	if err != nil {
		return fmt.Errorf("study: calib pre-pass: %w", err)
	}
	jrows, jcols := base.Braid.Arch.TileRows+1, base.Braid.Arch.TileCols+1
	horizon := max(base.Cycles/2, 1)

	type cell struct {
		topology string
		kind     string // uniform, calibrated, or the live-defect count
		trial    int
		seed     int64
		dev      *Device
		defects  *DefectSchedule
	}
	var cells []cell
	var labels []string
	add := func(topology string, calibrated bool, events, trial int) {
		c := cell{topology: topology, kind: "uniform", trial: trial, seed: CellSeed(s.tc.seed, len(cells))}
		c.dev = PerfectDevice()
		if topology == calibHeavyHex {
			c.dev = HeavyHexDevice(c.seed)
		}
		if calibrated {
			c.kind = "calibrated"
			snap := s.p.Calibration
			if snap == nil {
				snap = SyntheticCalibration(c.seed, jrows, jcols)
			}
			c.dev = c.dev.WithCalibration(snap)
		}
		if events > 0 {
			c.kind = fmt.Sprintf("defects=%d", events)
			c.defects = RandomDefectSchedule(c.seed, jrows, jcols, events, horizon)
		}
		cells = append(cells, c)
		labels = append(labels, fmt.Sprintf("%s/%s/%s/trial%d", w.Name, topology, c.kind, trial))
	}
	topologies := []string{calibSquare}
	if !s.p.SquareOnly {
		topologies = append(topologies, calibHeavyHex)
	}
	for _, topo := range topologies {
		add(topo, false, 0, 0)
	}
	for t := 0; t < studyTrials; t++ {
		for _, topo := range topologies {
			add(topo, true, 0, t)
		}
	}
	for t := 0; t < studyTrials; t++ {
		for _, topo := range topologies {
			add(topo, false, calibDefectEvents, t)
		}
	}
	results, err := sweep.Map(ctx, s.opts(labels), cells, func(i int, c cell) (*BraidResult, error) {
		return s.compileOn(ctx, w, c.dev, c.defects, labels[i])
	})
	if err != nil {
		return err
	}
	tech := Superconducting(calibPhysicalError)
	s.println("Calibration study: coupling topology, calibrated heterogeneity, live defects")
	s.println(strings.Repeat("-", 100))
	s.printf("%-6s %-10s %-12s %5s %10s %7s %8s %8s %11s %11s %11s\n",
		"App", "topology", "cells", "trial", "cycles", "ratio", "adaptive", "reroutes", "p_tile min", "p_tile max", "p_L(sched)")
	var defectCells, survived int
	for i, r := range results {
		c := cells[i]
		// Per-tile logical-rate spread on the realized junction grid.
		rates := resource.TileLogicalRates(c.dev.Instance(jrows, jcols), tech, s.tc.distance)
		rateMin, rateMax, rateMean := resource.RateSpread(rates)
		if c.defects != nil {
			defectCells++
		}
		ok, logicalRate := 0.0, 0.0
		if r == nil {
			r = &BraidResult{}
			s.printf("%-6s %-10s %-12s %5d %10s\n", w.Name, c.topology, c.kind, c.trial, "unroutable")
		} else {
			ok = 1
			if c.defects != nil {
				survived++
			}
			logicalRate = resource.ScheduleLogicalRate(r.Tiles, r.ScheduleCycles, rateMean)
			s.printf("%-6s %-10s %-12s %5d %10d %7.3f %8d %8d %11.3e %11.3e %11.3e\n",
				w.Name, c.topology, c.kind, c.trial, r.ScheduleCycles, r.Ratio, r.AdaptiveRoutes, r.Reroutes,
				rateMin, rateMax, logicalRate)
		}
		rec := s.record("calib", labels[i], map[string]float64{
			"cycles":       float64(r.ScheduleCycles),
			"ratio":        r.Ratio,
			"adaptive":     float64(r.AdaptiveRoutes),
			"reroutes":     float64(r.Reroutes),
			"tiles":        float64(r.Tiles),
			"rate_min":     rateMin,
			"rate_max":     rateMax,
			"rate_mean":    rateMean,
			"logical_rate": logicalRate,
			"survived":     ok,
		})
		rec.Seed, rec.Device = c.seed, c.dev.String()
	}
	if defectCells > 0 {
		s.printf("live-defect survival: %d/%d runs re-routed around mid-schedule coupler deaths\n",
			survived, defectCells)
	}
	s.println("Calibration realizes as heterogeneous link weights (slow couplers stretch braids)")
	s.println("and per-tile error rates (placement avoids hot tiles; p_L prices the spread).")
	return nil
}

// compileOn compiles w through the braid backend on a device the yield
// or calib study realized, with its live defects. A device that leaves
// the circuit unroutable is a result the study records, not a failure:
// the BraidResult is then nil.
func (s *studyRun) compileOn(ctx context.Context, w Workload, dev *Device, defects *DefectSchedule, label string) (*BraidResult, error) {
	plan, err := BraidBackend{}.Compile(ctx, w.Circuit, s.tc.studyTarget(dev, defects))
	switch {
	case errors.Is(err, ErrUnroutable):
		return nil, nil
	case err != nil:
		return nil, fmt.Errorf("study: %s: %w", label, err)
	}
	return plan.Braid, nil
}
