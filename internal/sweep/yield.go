package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"surfcomm/internal/apps"
	"surfcomm/internal/braid"
	"surfcomm/internal/device"
	"surfcomm/internal/resource"
	"surfcomm/internal/scerr"
	"surfcomm/internal/surface"
)

// YieldCell is one braid compile on one realized defective device: a
// (application, defect fraction, trial) point of the yield study. Cells
// where the circuit cannot be compiled at all — endpoints cut off by
// the defect map — record Unroutable instead of failing the grid.
type YieldCell struct {
	App        string
	DefectFrac float64
	Trial      int
	// Seed is the cell's derived device-realization seed
	// (deterministic from Options.Seed and the cell index).
	Seed int64
	// Device is the realized device's record string (preset, defect
	// fraction, seed).
	Device     string
	Unroutable bool
	Cycles     int64
	Ratio      float64
	Adaptive   int64
	Tiles      int
	// LogicalRate estimates the probability of at least one logical
	// error over the schedule: tiles × cycles × p_L(d), capped at 1 —
	// longer defect-detoured schedules accumulate more logical error.
	LogicalRate float64
}

// YieldOptions selects the yield-study grid.
type YieldOptions struct {
	// Distance is the code distance; zero selects 9.
	Distance int
	// App restricts the grid to one application (case-insensitive
	// name); empty selects GSE (the fastest braid workload — the grid
	// regenerates in CI).
	App string
	// Fractions are the defect fractions swept; empty selects
	// {0, 0.02, 0.05}.
	Fractions []float64
	// Trials is the number of independent device realizations per
	// fraction; zero selects 2.
	Trials int
	// Clustered selects spatially correlated defects
	// (device.ClusteredDefects) instead of independent random yield.
	Clustered bool
	// PhysicalError is p_P for the logical-rate estimate; zero selects
	// 1e-8.
	PhysicalError float64
}

func (o YieldOptions) withDefaults() YieldOptions {
	if o.Distance == 0 {
		o.Distance = 9
	}
	if o.App == "" {
		o.App = "GSE"
	}
	if len(o.Fractions) == 0 {
		o.Fractions = []float64{0, 0.02, 0.05}
	}
	if o.Trials == 0 {
		o.Trials = 2
	}
	if o.PhysicalError == 0 {
		o.PhysicalError = 1e-8
	}
	return o
}

// YieldGrid compiles one workload through the braid backend across a
// grid of defective devices — logical error rate and schedule latency
// vs. defect fraction, the communication-yield study no ideal-grid
// model can express. Each cell realizes its own device from a seed
// derived deterministically from the base seed and the cell index, so
// the grid is bit-identical at any worker count; unroutable cells are
// recorded, not fatal.
func YieldGrid(ctx context.Context, opt Options, yopt YieldOptions) ([]YieldCell, error) {
	yopt = yopt.withDefaults()
	var workload *apps.Workload
	for _, w := range apps.Fig6Suite() {
		if strings.EqualFold(w.Name, yopt.App) {
			workload = &w
			break
		}
	}
	if workload == nil {
		return nil, scerr.BadConfig("sweep: unknown yield app %q", yopt.App)
	}
	tech := surface.Superconducting(yopt.PhysicalError)
	perCycle := tech.LogicalErrorPerCycle(yopt.Distance)
	type cell struct {
		frac  float64
		trial int
	}
	cells := make([]cell, 0, len(yopt.Fractions)*yopt.Trials)
	for _, f := range yopt.Fractions {
		for t := 0; t < yopt.Trials; t++ {
			cells = append(cells, cell{f, t})
		}
	}
	return Map(ctx, opt, cells, func(i int, c cell) (YieldCell, error) {
		seed := device.CellSeed(opt.Seed, i)
		dev := device.RandomYield(c.frac, seed)
		if yopt.Clustered {
			dev = device.ClusteredDefects(c.frac, seed)
		}
		out := YieldCell{
			App:        workload.Name,
			DefectFrac: c.frac,
			Trial:      c.trial,
			Seed:       seed,
			Device:     dev.String(),
		}
		r, err := braid.SimulateContext(ctx, workload.Circuit, braid.Policy6, braid.Config{
			Distance: yopt.Distance,
			Seed:     opt.Seed,
			Device:   dev,
		})
		if err != nil {
			if errors.Is(err, scerr.ErrUnroutable) {
				out.Unroutable = true
				return out, nil
			}
			return YieldCell{}, fmt.Errorf("sweep: %s at p=%g trial %d: %w", workload.Name, c.frac, c.trial, err)
		}
		out.Cycles = r.ScheduleCycles
		out.Ratio = r.Ratio
		out.Adaptive = r.AdaptiveRoutes
		out.Tiles = r.Tiles
		out.LogicalRate = resource.ScheduleLogicalRate(r.Tiles, r.ScheduleCycles, perCycle)
		return out, nil
	})
}
