package sweep

import (
	"context"
	"fmt"
	"math/rand"

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
// with a serial run. Grids that take a cell slice evaluate exactly the
// cells the caller enumerated, in that order, so the caller can label
// each cell once (the surfcomm Study registry does).

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

// EPRWindows runs the §8.1 pipelined-EPR window study for every
// workload in parallel — one cell per application, each scheduling the
// circuit on the Multi-SIMD machine and sweeping look-ahead windows
// around the JIT heuristic.
func EPRWindows(ctx context.Context, opt Options, suite []apps.Workload, cfg teleport.Config) ([]EPRCell, error) {
	return Map(ctx, opt, suite, func(_ int, w apps.Workload) (EPRCell, error) {
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
// failure count. The caller sets Distance, PhysicalRate and Trials; the
// grid fills in the rest.
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

// DecoderGrid measures the logical error rate of every cell — the
// decoding counterpart of the Figure 9 boundary studies. Each cell
// derives its seed deterministically from the base seed and its index,
// runs its Monte Carlo serially (the grid itself fans across the
// worker pool), and is bit-identical at any worker count. A nil
// strategy selects the default (MWPM) and leaves the per-cell Strategy
// field empty, keeping pre-strategy records byte-identical.
func DecoderGrid(ctx context.Context, opt Options, cells []DecoderCell, strategy decoder.Strategy) ([]DecoderCell, error) {
	name := ""
	if strategy != nil {
		name = strategy.Name()
	}
	return Map(ctx, opt, cells, func(i int, c DecoderCell) (DecoderCell, error) {
		c.Seed = device.CellSeed(opt.Seed, i)
		c.Strategy = name
		l, err := decoder.NewLattice(c.Distance)
		if err != nil {
			return DecoderCell{}, err
		}
		mc := &decoder.MonteCarlo{
			Lattice: l,
			Rng:     rand.New(rand.NewSource(c.Seed)),
			Config:  decoder.Config{Workers: 1, Strategy: strategy},
		}
		r, err := mc.RunContext(ctx, c.PhysicalRate, c.Trials)
		if err != nil {
			return DecoderCell{}, err
		}
		c.Failures, c.LogicalRate, c.WorkOps = r.Failures, r.LogicalRate, r.WorkOps
		return c, nil
	})
}

// Figure6Cell is one (application, policy) braid simulation of the
// Figure 6 grid. The caller sets Workload and Policy; the grid fills in
// the rest.
type Figure6Cell struct {
	Workload apps.Workload
	Policy   braid.Policy
	Ratio    float64
	Util     float64
	Cycles   int64
	// Braids/Adaptive/Reinjections expose the engine's placement
	// counters (the cmd/sweep -fig6 columns).
	Braids       int64
	Adaptive     int64
	Reinjections int64
	// Replayed counts the static-schedule entries replay-validated on
	// a verified grid (zero otherwise).
	Replayed int
}

// Figure6 runs the Figure 6 policy sweep across the worker pool. Each
// cell is an independent braid simulation with its own mesh, so the
// grid scales to the core count. With verify, every cell records its
// static schedule and replay-validates it (dependencies respected, no
// double-booked tiles, junctions or links); a schedule that fails
// validation fails the grid.
func Figure6(ctx context.Context, opt Options, cells []Figure6Cell, distance int, verify bool) ([]Figure6Cell, error) {
	return Map(ctx, opt, cells, func(_ int, c Figure6Cell) (Figure6Cell, error) {
		w := c.Workload
		r, err := braid.SimulateContext(ctx, w.Circuit, c.Policy, braid.Config{
			Distance:       distance,
			Seed:           opt.Seed,
			RecordSchedule: verify,
		})
		if err != nil {
			return Figure6Cell{}, fmt.Errorf("sweep: %s under %v: %w", w.Name, c.Policy, err)
		}
		if verify {
			if err := braid.Replay(w.Circuit, r.Arch, r.Schedule); err != nil {
				return Figure6Cell{}, fmt.Errorf("sweep: %s under %v: replay validation failed: %w", w.Name, c.Policy, err)
			}
			c.Replayed = len(r.Schedule)
		}
		c.Ratio, c.Util, c.Cycles = r.Ratio, r.AvgUtilization, r.ScheduleCycles
		c.Braids, c.Adaptive, c.Reinjections = r.BraidsPlaced, r.AdaptiveRoutes, r.Reinjections
		return c, nil
	})
}
