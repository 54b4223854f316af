package sweep

import (
	"fmt"
	"math/rand"
	"strings"

	"context"

	"surfcomm/internal/apps"
	"surfcomm/internal/braid"
	"surfcomm/internal/decoder"
	"surfcomm/internal/device"
	"surfcomm/internal/simd"
	"surfcomm/internal/teleport"
	"surfcomm/internal/toolflow"
)

// The domain grids: each study of the paper's evaluation expressed as
// independent cells over the Map runner. Every grid is a pure function
// of (inputs, seed), so runs at any worker count agree cell-for-cell
// with a serial run.

// Characterize measures app models for the given workloads in parallel
// — one cell per workload, each running the full frontend + Multi-SIMD
// + braid characterization. The seed is shared across cells (it is part
// of the model identity): the result equals a serial loop over
// toolflow.Characterize.
func Characterize(ctx context.Context, opt Options, workloads []apps.Workload) ([]toolflow.AppModel, error) {
	return Map(ctx, opt, workloads, func(_ int, w apps.Workload) (toolflow.AppModel, error) {
		return toolflow.CharacterizeContext(ctx, w, opt.Seed)
	})
}

// Models characterizes the reference suite (the models behind Figures
// 7–9) across the worker pool. Equivalent to
// toolflow.ReferenceModels(opt.Seed), cell-parallel.
func Models(ctx context.Context, opt Options) ([]toolflow.AppModel, error) {
	return Characterize(ctx, opt, toolflow.ReferenceWorkloads())
}

// Curve evaluates a log-spaced K sweep for one model — the Figure 7/8
// series — one cell per design point. Equivalent to toolflow.Curve.
func Curve(ctx context.Context, opt Options, m toolflow.AppModel, physicalError float64, fromExp, toExp, pointsPerDecade int) ([]toolflow.DesignPoint, error) {
	exps := make([]int, 0, (toExp-fromExp)*pointsPerDecade+1)
	for i := fromExp * pointsPerDecade; i <= toExp*pointsPerDecade; i++ {
		exps = append(exps, i)
	}
	return Map(ctx, opt, exps, func(_ int, i int) (toolflow.DesignPoint, error) {
		return toolflow.CurvePoint(m, physicalError, i, pointsPerDecade)
	})
}

// Boundary computes the Figure 9 crossover boundaries for every model
// over the full error-rate axis — the (application × p_P) grid, one
// crossover search per cell. Row i holds models[i]'s boundary in rate
// order, exactly as toolflow.Boundary returns it.
func Boundary(ctx context.Context, opt Options, models []toolflow.AppModel, rates []float64) ([][]toolflow.BoundaryPoint, error) {
	type cell struct {
		model int
		rate  int
	}
	cells := make([]cell, 0, len(models)*len(rates))
	for mi := range models {
		for ri := range rates {
			cells = append(cells, cell{mi, ri})
		}
	}
	pts, err := Map(ctx, opt, cells, func(_ int, c cell) (toolflow.BoundaryPoint, error) {
		return toolflow.BoundaryAt(models[c.model], rates[c.rate]), nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]toolflow.BoundaryPoint, len(models))
	for mi := range models {
		out[mi] = pts[mi*len(rates) : (mi+1)*len(rates)]
	}
	return out, nil
}

// EPRCell is one application's §8.1 window-sweep study.
type EPRCell struct {
	Name      string
	Moves     int
	Timesteps int
	JIT       int64
	// JITIndex is the position of the JIT-window row in Rows, so
	// consumers never hard-code the window ordering.
	JITIndex int
	Rows     []teleport.Result
}

// EPRWindows runs the §8.1 pipelined-EPR window study for every Fig. 6
// workload in parallel — one cell per application, each scheduling the
// circuit on the Multi-SIMD machine and sweeping look-ahead windows
// around the JIT heuristic.
func EPRWindows(ctx context.Context, opt Options, cfg teleport.Config) ([]EPRCell, error) {
	return Map(ctx, opt, apps.Fig6Suite(), func(_ int, w apps.Workload) (EPRCell, error) {
		sched, err := simd.RunContext(ctx, w.Circuit, simd.ConfigFor(w.Circuit.NumQubits, opt.Seed))
		if err != nil {
			return EPRCell{}, err
		}
		jit := teleport.JITWindow(sched, cfg)
		const jitIndex = 3
		windows := []int64{0, jit / 4, jit / 2, jit, 2 * jit, 8 * jit, teleport.PrefetchAll}
		rows, err := teleport.SweepWindowsContext(ctx, sched, windows, cfg)
		if err != nil {
			return EPRCell{}, err
		}
		return EPRCell{
			Name:      w.Name,
			Moves:     len(sched.Moves),
			Timesteps: sched.Timesteps,
			JIT:       jit,
			JITIndex:  jitIndex,
			Rows:      rows,
		}, nil
	})
}

// DecoderCell is one Monte Carlo decoding cell of the §2.3 error-model
// validation grid: a (distance, physical rate) point with its measured
// failure count.
type DecoderCell struct {
	Distance     int
	PhysicalRate float64
	Trials       int
	// Seed is the cell's derived Monte Carlo seed (deterministic from
	// Options.Seed and the cell index, recorded for reproduction).
	Seed        int64
	Failures    int
	LogicalRate float64
	// Strategy names the decoding strategy the cell ran under; empty
	// means the default (MWPM), keeping pre-strategy records
	// byte-identical.
	Strategy string
	// WorkOps is the cell's summed deterministic decode work (see
	// decoder.Result.WorkOps) — the machine-independent cost measure
	// the crossover study compares across strategies.
	WorkOps uint64
}

// DecoderGrid measures the logical error rate across the (distance ×
// physical rate) plane — the decoding counterpart of the Figure 9
// boundary studies. Each cell derives its seed deterministically from
// the base seed and its index, runs its Monte Carlo serially (the grid
// itself fans across the worker pool), and is bit-identical at any
// worker count. A nil strategy selects the default (MWPM) and leaves
// the per-cell Strategy field empty, keeping pre-strategy records
// byte-identical.
func DecoderGrid(ctx context.Context, opt Options, distances []int, rates []float64, trials int, strategy decoder.Strategy) ([]DecoderCell, error) {
	type cell struct {
		d    int
		rate float64
	}
	cells := make([]cell, 0, len(distances)*len(rates))
	for _, d := range distances {
		for _, r := range rates {
			cells = append(cells, cell{d, r})
		}
	}
	name := ""
	if strategy != nil {
		name = strategy.Name()
	}
	return Map(ctx, opt, cells, func(i int, c cell) (DecoderCell, error) {
		seed := device.CellSeed(opt.Seed, i)
		l, err := decoder.NewLattice(c.d)
		if err != nil {
			return DecoderCell{}, err
		}
		mc := &decoder.MonteCarlo{
			Lattice: l,
			Rng:     rand.New(rand.NewSource(seed)),
			Config:  decoder.Config{Workers: 1, Strategy: strategy},
		}
		r, err := mc.RunContext(ctx, c.rate, trials)
		if err != nil {
			return DecoderCell{}, err
		}
		return DecoderCell{
			Distance:     c.d,
			PhysicalRate: c.rate,
			Trials:       trials,
			Seed:         seed,
			Failures:     r.Failures,
			LogicalRate:  r.LogicalRate,
			Strategy:     name,
			WorkOps:      r.WorkOps,
		}, nil
	})
}

// Figure6Cell is one (application, policy) braid simulation of the
// Figure 6 grid.
type Figure6Cell struct {
	App    string
	Policy int
	Ratio  float64
	Util   float64
	Cycles int64
	// Braids/Adaptive/Reinjections expose the engine's placement
	// counters (the cmd/sweep -fig6 columns).
	Braids       int64
	Adaptive     int64
	Reinjections int64
	// Result carries the full simulation result so callers can
	// replay-validate cells. It is populated only when
	// Figure6Options.RecordSchedule is set, keeping default cells
	// directly comparable across runs (the parallel==serial checks).
	Result *braid.Result
}

// Figure6Options selects the Figure 6 grid variant.
type Figure6Options struct {
	// Distance is the code distance; zero selects 9.
	Distance int
	// RecordSchedule captures each cell's static schedule for replay
	// validation.
	RecordSchedule bool
	// App restricts the grid to one application (case-insensitive
	// name); empty runs the full suite.
	App string
}

// Figure6 runs the Figure 6 policy sweep — every application under
// every braid policy — across the worker pool. Each cell is an
// independent braid simulation with its own mesh, so the grid scales to
// the core count.
func Figure6(ctx context.Context, opt Options, fopt Figure6Options) ([]Figure6Cell, error) {
	if fopt.Distance == 0 {
		fopt.Distance = 9
	}
	type cell struct {
		w apps.Workload
		p braid.Policy
	}
	var cells []cell
	for _, w := range apps.Fig6Suite() {
		if fopt.App != "" && !strings.EqualFold(fopt.App, w.Name) {
			continue
		}
		for _, p := range braid.AllPolicies {
			cells = append(cells, cell{w, p})
		}
	}
	return Map(ctx, opt, cells, func(_ int, c cell) (Figure6Cell, error) {
		r, err := braid.SimulateContext(ctx, c.w.Circuit, c.p, braid.Config{
			Distance:       fopt.Distance,
			Seed:           opt.Seed,
			RecordSchedule: fopt.RecordSchedule,
		})
		if err != nil {
			return Figure6Cell{}, fmt.Errorf("sweep: %s under %v: %w", c.w.Name, c.p, err)
		}
		out := Figure6Cell{
			App:          c.w.Name,
			Policy:       int(c.p),
			Ratio:        r.Ratio,
			Util:         r.AvgUtilization,
			Cycles:       r.ScheduleCycles,
			Braids:       r.BraidsPlaced,
			Adaptive:     r.AdaptiveRoutes,
			Reinjections: r.Reinjections,
		}
		if fopt.RecordSchedule {
			out.Result = &r
		}
		return out, nil
	})
}
