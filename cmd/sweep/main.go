// Command sweep runs the paper's evaluation studies:
//
//	-fig7   absolute space and time vs computation size (SQ, p_P=1e-8)
//	-fig8   double-defect:planar resource ratios and crossover (SQ, IM)
//	-fig9   crossover boundary across physical error rates (all apps)
//	-epr    pipelined EPR distribution window sweep (§8.1)
//
// With no flags, those four studies run. The other studies are opt-in
// and, like the flags above, narrow the run to the selected studies:
// -table1 and -table2 print the communication-method comparison and
// the application summary, -fig6 prints the Figure 6 braid-policy grid
// (every application under every policy, or one with -app; -verify
// replay-validates every recorded schedule), and -decoder selects the
// §2.3 Monte Carlo error-model validation grid (distance × physical
// rate, deterministic per-cell seeds). `-epr -decoder -json
// BENCH_planar.json` regenerates the committed planar-pipeline
// artifact, and `-calib -json BENCH_calib.json` regenerates the
// calibration-study artifact (square vs heavy-hex coupling, uniform vs
// calibrated devices, live-defect survival).
//
// The studies run on a shared surfcomm.Toolchain: the grids evaluate on
// its worker pool (-workers, default GOMAXPROCS) and results are
// gathered in deterministic cell order before printing, so the figures
// are byte-identical at any worker count — `-workers 1` is the serial
// reference. `-json FILE` additionally emits every grid cell as a
// machine-readable record (the BENCH_sweep.json convention) for
// tracking the reproduction's trajectory across revisions. `-progress`
// streams per-cell completions to stderr, and an interrupt (Ctrl-C)
// cancels the run mid-grid.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"surfcomm"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	table1 := flag.Bool("table1", false, "Table 1: communication-method comparison (opt-in)")
	table2 := flag.Bool("table2", false, "Table 2: application summary with parallelism factors (opt-in)")
	fig6 := flag.Bool("fig6", false, "Figure 6: braid policy grid (opt-in)")
	verify := flag.Bool("verify", false, "record each -fig6 static schedule and replay-validate it")
	fig7 := flag.Bool("fig7", false, "Figure 7: absolute scaling")
	fig8 := flag.Bool("fig8", false, "Figure 8: resource ratios and crossover")
	fig9 := flag.Bool("fig9", false, "Figure 9: crossover boundaries")
	epr := flag.Bool("epr", false, "§8.1: EPR window sweep")
	dec := flag.Bool("decoder", false, "§2.3: Monte Carlo error-model validation grid (opt-in)")
	decStrategy := flag.String("decoder-strategy", "", "decoding strategy for -decoder: mwpm or unionfind (default mwpm)")
	decode := flag.Bool("decode", false, "decoder strategy benchmark: parity + work-op crossover for mwpm vs unionfind (opt-in)")
	modular := flag.Bool("modular", false, "hierarchical incremental-compilation study: monolithic vs per-module caching (opt-in)")
	yield := flag.Bool("yield", false, "communication-yield study: braid compiles on defective devices (opt-in)")
	defectFrac := flag.String("defect-frac", "", "comma-separated defect fractions for -yield (default 0,0.02,0.05)")
	app := flag.String("app", "", "application for -fig6, -yield and -calib (default: every app for -fig6, GSE otherwise)")
	clustered := flag.Bool("clustered", false, "use clustered defects instead of random yield for -yield")
	calib := flag.Bool("calib", false, "calibration study: square vs heavy-hex, uniform vs calibrated, live-defect survival (opt-in)")
	calibPath := flag.String("calibration", "", "calibration snapshot JSON for the -calib study (default: synthetic per-cell snapshots)")
	squareOnly := flag.Bool("square-only", false, "drop the heavy-hex rows from the -calib study")
	pp := flag.Float64("pp", 1e-8, "physical error rate for -fig7/-fig8")
	seed := flag.Int64("seed", 1, "characterization seed")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
	jsonPath := flag.String("json", "", "write per-cell results to this JSON file (e.g. BENCH_sweep.json)")
	progress := flag.Bool("progress", false, "stream per-cell completions to stderr")
	flag.Parse()
	later := *fig7 || *fig8 || *fig9 || *epr || *dec || *yield || *decode || *modular || *calib
	all := !later && !*table1 && !*table2 && !*fig6

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := []surfcomm.ToolchainOption{
		surfcomm.WithSeed(*seed),
		surfcomm.WithWorkers(*workers),
		surfcomm.WithTechnology(surfcomm.Superconducting(*pp)),
	}
	if *decStrategy != "" {
		opts = append(opts, surfcomm.WithDecoderStrategy(*decStrategy))
	}
	if *progress {
		opts = append(opts, surfcomm.WithProgress(func(ev surfcomm.Event) {
			log.Printf("%s %s (%d/%d)", ev.Stage, ev.Cell, ev.Index+1, ev.Total)
		}))
	}
	tc, err := surfcomm.NewToolchain(opts...)
	if err != nil {
		log.Fatal(err)
	}

	var records []surfcomm.SweepCellResult

	var models []surfcomm.AppModel
	if all || *fig7 || *fig8 || *fig9 {
		models, err = tc.Models(ctx)
		if err != nil {
			log.Fatal(err)
		}
		records = append(records, surfcomm.SweepModelRecords(*seed, models)...)
	}

	// Tables 1-2 and Figure 6 print blank-line separated, with no
	// trailing blank line unless another study follows.
	gap := false
	for _, s := range []struct {
		on  bool
		run func() error
	}{
		{*table1, func() error { return runTable1(ctx, tc, &records) }},
		{*table2, func() error { return runTable2(ctx, tc, &records) }},
		{*fig6, func() error { return runFig6(ctx, tc, *app, *verify, &records) }},
	} {
		if !s.on {
			continue
		}
		if gap {
			fmt.Println()
		}
		if err := s.run(); err != nil {
			log.Fatal(err)
		}
		gap = true
	}
	if gap && later {
		fmt.Println()
	}
	if all || *fig7 {
		if err := runFig7(ctx, tc, models, *pp, &records); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if all || *fig8 {
		if err := runFig8(ctx, tc, models, *pp, &records); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if all || *fig9 {
		if err := runFig9(ctx, tc, models, &records); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if all || *epr {
		if err := runEPR(ctx, tc, &records); err != nil {
			log.Fatal(err)
		}
	}
	if *dec {
		if err := runDecoder(ctx, tc, &records); err != nil {
			log.Fatal(err)
		}
	}
	if *decode {
		if err := runDecodeBench(ctx, *seed, *workers, &records); err != nil {
			log.Fatal(err)
		}
	}
	if *modular {
		if err := runModular(ctx, *seed, *workers, &records); err != nil {
			log.Fatal(err)
		}
	}
	if *yield {
		fracs, err := parseFracs(*defectFrac)
		if err != nil {
			log.Fatal(err)
		}
		if err := runYield(ctx, tc, surfcomm.SweepYieldOptions{
			App:       *app,
			Fractions: fracs,
			Clustered: *clustered,
			Distance:  9,
		}, &records); err != nil {
			log.Fatal(err)
		}
	}
	if *calib {
		copt := surfcomm.SweepCalibOptions{App: *app, SquareOnly: *squareOnly}
		if *calibPath != "" {
			f, err := os.Open(*calibPath)
			if err != nil {
				log.Fatal(err)
			}
			copt.Calibration, err = surfcomm.LoadCalibration(f)
			f.Close()
			if err != nil {
				log.Fatal(err)
			}
		}
		if err := runCalib(ctx, tc, copt, &records); err != nil {
			log.Fatal(err)
		}
	}

	if *jsonPath != "" {
		if err := surfcomm.WriteSweepRecordsFile(*jsonPath, records); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %d cells to %s", len(records), *jsonPath)
	}
}

// parseFracs parses the -defect-frac list; empty selects the YieldGrid
// defaults.
func parseFracs(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -defect-frac %q: %v", part, err)
		}
		out = append(out, f)
	}
	return out, nil
}

func runYield(ctx context.Context, tc *surfcomm.Toolchain, yopt surfcomm.SweepYieldOptions, records *[]surfcomm.SweepCellResult) error {
	cells, err := tc.YieldGrid(ctx, yopt)
	if err != nil {
		return err
	}
	*records = append(*records, surfcomm.SweepYieldRecords(cells)...)
	fmt.Println("\nCommunication yield: braid compiles on defective devices")
	fmt.Println(strings.Repeat("-", 78))
	fmt.Printf("%-8s %8s %6s %12s %8s %10s %12s\n",
		"App", "p", "trial", "cycles", "ratio", "adaptive", "p_L(sched)")
	for _, c := range cells {
		if c.Unroutable {
			fmt.Printf("%-8s %8g %6d %12s\n", c.App, c.DefectFrac, c.Trial, "unroutable")
			continue
		}
		fmt.Printf("%-8s %8g %6d %12d %8.3f %10d %12.3e\n",
			c.App, c.DefectFrac, c.Trial, c.Cycles, c.Ratio, c.Adaptive, c.LogicalRate)
	}
	fmt.Println("Defects stretch schedules (dimension-ordered routes detour via BFS) until")
	fmt.Println("the fabric disconnects and compiles fail fast with ErrUnroutable.")
	return nil
}

func runCalib(ctx context.Context, tc *surfcomm.Toolchain, copt surfcomm.SweepCalibOptions, records *[]surfcomm.SweepCellResult) error {
	cells, err := tc.CalibGrid(ctx, copt)
	if err != nil {
		return err
	}
	*records = append(*records, surfcomm.SweepCalibRecords(cells)...)
	fmt.Println("\nCalibration study: coupling topology, calibrated heterogeneity, live defects")
	fmt.Println(strings.Repeat("-", 100))
	fmt.Printf("%-6s %-10s %-12s %5s %10s %7s %8s %8s %11s %11s %11s\n",
		"App", "topology", "cells", "trial", "cycles", "ratio", "adaptive", "reroutes", "p_tile min", "p_tile max", "p_L(sched)")
	for _, c := range cells {
		label := "uniform"
		if c.Calibrated {
			label = "calibrated"
		}
		if c.Defects > 0 {
			label = fmt.Sprintf("defects=%d", c.Defects)
		}
		if !c.Survived {
			fmt.Printf("%-6s %-10s %-12s %5d %10s\n", c.App, c.Topology, label, c.Trial, "unroutable")
			continue
		}
		fmt.Printf("%-6s %-10s %-12s %5d %10d %7.3f %8d %8d %11.3e %11.3e %11.3e\n",
			c.App, c.Topology, label, c.Trial, c.Cycles, c.Ratio, c.Adaptive, c.Reroutes, c.RateMin, c.RateMax, c.LogicalRate)
	}
	var defectCells, survived int
	for _, c := range cells {
		if c.Defects > 0 {
			defectCells++
			if c.Survived {
				survived++
			}
		}
	}
	if defectCells > 0 {
		fmt.Printf("live-defect survival: %d/%d runs re-routed around mid-schedule coupler deaths\n",
			survived, defectCells)
	}
	fmt.Println("Calibration realizes as heterogeneous link weights (slow couplers stretch braids)")
	fmt.Println("and per-tile error rates (placement avoids hot tiles; p_L prices the spread).")
	return nil
}

// runFig6 prints the Figure 6 grid: the braid schedule-length to
// critical-path ratio (the paper's blue bars), average mesh utilization
// (the red curve), and the engine's placement counters. With verify,
// every cell's recorded static schedule is replay-validated.
func runFig6(ctx context.Context, tc *surfcomm.Toolchain, app string, verify bool, records *[]surfcomm.SweepCellResult) error {
	cells, err := tc.Figure6(ctx, surfcomm.SweepFigure6Options{RecordSchedule: verify, App: app})
	if err != nil {
		return err
	}
	*records = append(*records, surfcomm.SweepFigure6Records(tc.Seed(), cells)...)

	rule := strings.Repeat("-", 84)
	fmt.Printf("Figure 6: braid schedule / critical path and mesh utilization (d=%d)\n", tc.Target().Distance)
	fmt.Println(rule)
	fmt.Printf("%-8s %-10s %12s %12s %10s %10s %10s\n",
		"App", "Policy", "ratio", "util %", "braids", "adaptive", "reinject")
	suite := map[string]*surfcomm.Circuit{}
	for _, w := range surfcomm.Fig6Suite() {
		suite[w.Name] = w.Circuit
	}
	lastApp := ""
	for _, c := range cells {
		if lastApp != "" && c.App != lastApp {
			fmt.Println(rule)
		}
		lastApp = c.App
		status := ""
		if verify {
			if err := surfcomm.ReplayBraidSchedule(suite[c.App], c.Result.Arch, c.Result.Schedule); err != nil {
				return fmt.Errorf("%s Policy %d: replay validation failed: %w", c.App, c.Policy, err)
			}
			status = fmt.Sprintf("  replay-ok (%d entries)", len(c.Result.Schedule))
		}
		fmt.Printf("%-8s Policy %-3d %12.2f %12.1f %10d %10d %10d%s\n",
			c.App, c.Policy, c.Ratio, 100*c.Util, c.Braids, c.Adaptive, c.Reinjections, status)
	}
	if lastApp != "" {
		fmt.Println(rule)
	}
	fmt.Println("Paper: parallel apps (SHA-1, IM) start up to ~12x above the critical path and")
	fmt.Println("policies recover up to ~7x, while serial apps are near-critical-path throughout;")
	fmt.Println("utilization rises with policy sophistication (up to ~22%).")
	return nil
}

func runFig7(ctx context.Context, tc *surfcomm.Toolchain, models []surfcomm.AppModel, pp float64, records *[]surfcomm.SweepCellResult) error {
	m, err := surfcomm.ModelFor(models, "SQ")
	if err != nil {
		return err
	}
	fmt.Printf("Figure 7: absolute resource usage, SQ application (p_P=%.0e)\n", pp)
	fmt.Println(strings.Repeat("-", 86))
	fmt.Printf("%-10s %4s %14s %14s %14s %14s\n",
		"K (1/p_L)", "d", "planar sec", "dd sec", "planar qubits", "dd qubits")
	pts, err := tc.Curve(ctx, m, 0, 24, 1)
	if err != nil {
		return err
	}
	*records = append(*records, surfcomm.SweepCurveRecords("figure7", m.Name, pp, tc.Seed(), pts)...)
	for i, dp := range pts {
		if i%2 != 0 {
			continue
		}
		fmt.Printf("%-10.1e %4d %14.3e %14.3e %14.3e %14.3e\n",
			dp.TotalOps, dp.Distance, dp.PlanarSeconds, dp.DDSeconds, dp.PlanarQubits, dp.DDQubits)
	}
	fmt.Println("Paper: small instances run in under a second; ~1000 physical qubits for modest sizes.")
	return nil
}

func runFig8(ctx context.Context, tc *surfcomm.Toolchain, models []surfcomm.AppModel, pp float64, records *[]surfcomm.SweepCellResult) error {
	for _, name := range []string{"SQ", "IM_Fully_Inlined"} {
		m, err := surfcomm.ModelFor(models, name)
		if err != nil {
			return err
		}
		fmt.Printf("Figure 8: double-defect relative to planar, %s (p_P=%.0e)\n", name, pp)
		fmt.Println(strings.Repeat("-", 64))
		fmt.Printf("%-10s %4s %10s %10s %12s\n", "K (1/p_L)", "d", "qubits", "time", "qubits*time")
		pts, err := tc.Curve(ctx, m, 0, 24, 1)
		if err != nil {
			return err
		}
		*records = append(*records, surfcomm.SweepCurveRecords("figure8", name, pp, tc.Seed(), pts)...)
		for i, dp := range pts {
			if i%2 != 0 {
				continue
			}
			fmt.Printf("%-10.1e %4d %10.2f %10.3f %12.3f\n",
				dp.TotalOps, dp.Distance, dp.QubitsRatio, dp.TimeRatio, dp.SpaceTimeRatio)
		}
		if k, ok := tc.Crossover(m); ok {
			fmt.Printf("crossover: double-defect favored beyond K ~= %.1e\n", k)
		} else {
			fmt.Println("crossover: planar favored across the full 1e0..1e24 range")
		}
		fmt.Println()
	}
	fmt.Println("Paper: planar better at small sizes; crossover occurs much later for the")
	fmt.Println("parallel IM than for the serial SQ (congestion hurts braids more).")
	return nil
}

func runFig9(ctx context.Context, tc *surfcomm.Toolchain, models []surfcomm.AppModel, records *[]surfcomm.SweepCellResult) error {
	rates := surfcomm.Figure9ErrorRates()
	boundaries, err := tc.Boundary(ctx, models, rates)
	if err != nil {
		return err
	}
	fmt.Println("Figure 9: crossover boundary K*(p_P) per application")
	fmt.Println("(design points under the boundary favor planar codes)")
	fmt.Println(strings.Repeat("-", 30+12*len(rates)))
	fmt.Printf("%-18s", "p_P:")
	for _, r := range rates {
		fmt.Printf(" %10.0e", r)
	}
	fmt.Println()
	*records = append(*records, surfcomm.SweepBoundaryRecords(tc.Seed(), models, boundaries)...)
	for mi, m := range models {
		fmt.Printf("%-18s", m.Name)
		for _, pt := range boundaries[mi] {
			if pt.OffChart {
				fmt.Printf(" %10s", ">1e24")
			} else {
				fmt.Printf(" %10.1e", pt.CrossoverOps)
			}
		}
		fmt.Println()
	}
	fmt.Println("Paper: boundaries fall as devices get faultier and sit higher for more")
	fmt.Println("parallel applications.")
	return nil
}

func runDecoder(ctx context.Context, tc *surfcomm.Toolchain, records *[]surfcomm.SweepCellResult) error {
	distances := []int{3, 5, 7}
	rates := []float64{0.02, 0.05, 0.10}
	const trials = 400
	cells, err := tc.DecoderGrid(ctx, distances, rates, trials)
	if err != nil {
		return err
	}
	*records = append(*records, surfcomm.SweepDecoderRecords(cells)...)
	strategy := surfcomm.DecoderStrategyMWPM
	if len(cells) > 0 && cells[0].Strategy != "" {
		strategy = cells[0].Strategy
	}
	fmt.Printf("\n§2.3: Monte Carlo error-model validation (logical rate per decode round, %s)\n", strategy)
	fmt.Println(strings.Repeat("-", 56))
	fmt.Printf("%-6s %10s %10s %12s %10s\n", "d", "p", "failures", "trials", "p_L")
	for _, c := range cells {
		fmt.Printf("%-6d %10.2f %10d %12d %10.4f\n",
			c.Distance, c.PhysicalRate, c.Failures, c.Trials, c.LogicalRate)
	}
	fmt.Println("Paper: below threshold, each distance step suppresses the logical rate.")
	return nil
}

// runDecodeBench runs the decoder-strategy comparison behind
// BENCH_decode.json: parity cells at small distances (same per-cell
// seeds for both strategies, so the failure counts are directly
// comparable) plus a work-op curve at p=0.08 out to d=17, from which
// the union-find crossover distance is derived. Work-ops — not wall
// clock — are recorded so the artifact is byte-identical on any
// machine.
func runDecodeBench(ctx context.Context, seed int64, workers int, records *[]surfcomm.SweepCellResult) error {
	parityDistances := []int{3, 5, 7}
	parityRates := []float64{0.03, 0.05, 0.08}
	const parityTrials = 400
	crossDistances := []int{9, 13, 17}
	crossRates := []float64{0.08}
	const crossTrials = 60

	// ops[strategy][cell label] = workops/trial at p=0.08, keyed by d.
	ops := map[string]map[int]float64{}
	strategies := []string{surfcomm.DecoderStrategyMWPM, surfcomm.DecoderStrategyUnionFind}
	fmt.Println("\nDecoder strategy benchmark: mwpm vs unionfind")
	fmt.Println(strings.Repeat("-", 72))
	fmt.Printf("%-10s %-6s %10s %10s %12s %14s\n", "strategy", "d", "p", "failures", "trials", "workops/trial")
	for _, name := range strategies {
		tc, err := surfcomm.NewToolchain(
			surfcomm.WithSeed(seed),
			surfcomm.WithWorkers(workers),
			surfcomm.WithDecoderStrategy(name),
		)
		if err != nil {
			return err
		}
		cells, err := tc.DecoderGrid(ctx, parityDistances, parityRates, parityTrials)
		if err != nil {
			return err
		}
		cross, err := tc.DecoderGrid(ctx, crossDistances, crossRates, crossTrials)
		if err != nil {
			return err
		}
		cells = append(cells, cross...)
		*records = append(*records, surfcomm.SweepDecodeBenchRecords("decode", cells)...)
		ops[name] = map[int]float64{}
		for _, c := range cells {
			perTrial := float64(c.WorkOps) / float64(c.Trials)
			if c.PhysicalRate == 0.08 {
				ops[name][c.Distance] = perTrial
			}
			fmt.Printf("%-10s %-6d %10.2f %10d %12d %14.1f\n",
				name, c.Distance, c.PhysicalRate, c.Failures, c.Trials, perTrial)
		}
	}

	// Crossover: the smallest distance from which union-find stays
	// cheaper than the matcher for every larger measured distance.
	curve := append(append([]int{}, parityDistances...), crossDistances...)
	crossover := -1
	for i := len(curve) - 1; i >= 0; i-- {
		d := curve[i]
		if ops[surfcomm.DecoderStrategyUnionFind][d] < ops[surfcomm.DecoderStrategyMWPM][d] {
			crossover = d
		} else {
			break
		}
	}
	*records = append(*records, surfcomm.SweepCellResult{
		Study:    "decode",
		Cell:     "crossover/p=8.00e-02",
		Seed:     seed,
		Metrics:  map[string]float64{"crossover_distance": float64(crossover)},
		Device:   "perfect",
		Strategy: surfcomm.DecoderStrategyUnionFind,
	})
	if crossover >= 0 {
		fmt.Printf("crossover: unionfind cheaper than mwpm from d=%d on (p=0.08, work-ops/trial)\n", crossover)
	} else {
		fmt.Println("crossover: mwpm cheaper across the measured range (p=0.08)")
	}
	return nil
}

func runEPR(ctx context.Context, tc *surfcomm.Toolchain, records *[]surfcomm.SweepCellResult) error {
	fmt.Println("§8.1: pipelined EPR distribution — look-ahead window sweep")
	cells, err := tc.EPRStudy(ctx)
	if err != nil {
		return err
	}
	*records = append(*records, surfcomm.SweepEPRRecords(tc.Seed(), cells)...)
	for _, c := range cells {
		fmt.Printf("\n%s (%d moves, %d timesteps)\n", c.Name, c.Moves, c.Timesteps)
		fmt.Printf("%-14s %12s %12s %12s\n", "window", "peak live", "stall cyc", "overhead %")
		for _, r := range c.Rows {
			fmt.Printf("%-14s %12d %12d %12.1f\n",
				surfcomm.SweepEPRWindowLabel(r.WindowCycles), r.PeakLiveEPR, r.StallCycles, 100*r.LatencyOverhead)
		}
		flood := c.Rows[len(c.Rows)-1]
		jitRes := c.Rows[c.JITIndex]
		if jitRes.PeakLiveEPR > 0 {
			fmt.Printf("JIT vs prefetch-all: %.1fx fewer live EPR qubits at %.1f%% latency overhead\n",
				float64(flood.PeakLiveEPR)/float64(jitRes.PeakLiveEPR), 100*jitRes.LatencyOverhead)
		}
	}
	fmt.Println("\nPaper: up to ~24x qubit savings at <= ~4% extra latency.")
	return nil
}
