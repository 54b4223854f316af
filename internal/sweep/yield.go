package sweep

import (
	"context"
	"errors"
	"fmt"

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

// YieldGrid compiles w through the braid backend on one realized
// defective device per cell — logical error rate and schedule latency
// vs. defect fraction, the communication-yield study no ideal-grid
// model can express. The caller sets each cell's DefectFrac and Trial.
// Each cell realizes its device (clustered or random-yield defects)
// from a seed derived deterministically from the base seed and the
// cell index, so the grid is bit-identical at any worker count;
// unroutable cells are recorded, not fatal. tech prices the logical
// rate at distance d.
func YieldGrid(ctx context.Context, opt Options, w apps.Workload, cells []YieldCell, d int, tech surface.Technology, clustered bool) ([]YieldCell, error) {
	perCycle := tech.LogicalErrorPerCycle(d)
	return Map(ctx, opt, cells, func(i int, c YieldCell) (YieldCell, error) {
		c.App = w.Name
		c.Seed = device.CellSeed(opt.Seed, i)
		dev := device.RandomYield(c.DefectFrac, c.Seed)
		if clustered {
			dev = device.ClusteredDefects(c.DefectFrac, c.Seed)
		}
		c.Device = dev.String()
		r, err := braid.SimulateContext(ctx, w.Circuit, braid.Policy6, braid.Config{
			Distance: d,
			Seed:     opt.Seed,
			Device:   dev,
		})
		if err != nil {
			if errors.Is(err, scerr.ErrUnroutable) {
				c.Unroutable = true
				return c, nil
			}
			return YieldCell{}, fmt.Errorf("sweep: %s at p=%g trial %d: %w", w.Name, c.DefectFrac, c.Trial, err)
		}
		c.Cycles = r.ScheduleCycles
		c.Ratio = r.Ratio
		c.Adaptive = r.AdaptiveRoutes
		c.Tiles = r.Tiles
		c.LogicalRate = resource.ScheduleLogicalRate(r.Tiles, r.ScheduleCycles, perCycle)
		return c, nil
	})
}
