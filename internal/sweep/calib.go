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

// The calibration study: how much does device heterogeneity — coupling
// topology, per-coupler calibration, and mid-execution coupler deaths —
// move the braid-compiled schedule and its logical error rate? The grid
// compares square vs. heavy-hex coupling, uniform vs. calibrated
// devices (per-tile logical-rate spread from local calibration), and
// measures the live-defect survival fraction: the share of runs that
// re-route around mid-schedule coupler deaths instead of failing.

// CalibTopology names of the study's coupling patterns.
const (
	CalibSquare   = "square"
	CalibHeavyHex = "heavy-hex"
)

// CalibCell is one braid compile of the calibration study.
type CalibCell struct {
	App      string
	Topology string // CalibSquare or CalibHeavyHex
	// Calibrated marks cells running under a synthetic calibration
	// snapshot (heterogeneous link weights + per-tile error rates).
	Calibrated bool
	// Defects is the number of live coupler-death events injected
	// mid-schedule (0 = static device).
	Defects int
	Trial   int
	// Seed is the cell's derived realization seed.
	Seed int64
	// Device is the realized device's record string.
	Device string
	// Survived is false when the run failed with ErrUnroutable (the
	// fabric disconnected); survival fraction = mean over defect cells.
	Survived bool
	Cycles   int64
	Ratio    float64
	Adaptive int64
	// Reroutes counts in-flight braids torn down and re-placed around a
	// live coupler death.
	Reroutes int64
	Tiles    int
	// RateMin/RateMax/RateMean summarize the per-tile logical error
	// rates under local calibration (all equal to the uniform rate on
	// uncalibrated cells) — the calibrated-vs-uniform spread.
	RateMin  float64
	RateMax  float64
	RateMean float64
	// LogicalRate estimates the probability of at least one logical
	// error over the schedule, priced at the mean per-tile rate.
	LogicalRate float64
}

// CalibGrid runs the calibration study on w. The caller sets each
// cell's Topology, Calibrated, Defects and Trial. A serial pre-pass
// compiles the workload once on the perfect square device to learn the
// junction-grid dimensions (shared by every cell — neither heavy-hex
// nor calibration kills tiles) and the baseline schedule length that
// scales the defect-event horizon; the cells then fan across the worker
// pool, each deriving its seed from the base seed and cell index.
// Calibrated cells run under cal, or under a synthetic per-cell
// snapshot when cal is nil. tech is the uniform p_P baseline.
func CalibGrid(ctx context.Context, opt Options, w apps.Workload, cells []CalibCell, d int, tech surface.Technology, cal *device.Calibration) ([]CalibCell, error) {
	base, err := braid.SimulateContext(ctx, w.Circuit, braid.Policy6, braid.Config{
		Distance:       d,
		Seed:           opt.Seed,
		RecordSchedule: true, // only to learn the floorplan dims
	})
	if err != nil {
		return nil, fmt.Errorf("sweep: calib pre-pass: %w", err)
	}
	jrows, jcols := base.Arch.TileRows+1, base.Arch.TileCols+1
	horizon := base.ScheduleCycles / 2
	if horizon < 1 {
		horizon = 1
	}

	return Map(ctx, opt, cells, func(i int, c CalibCell) (CalibCell, error) {
		c.App = w.Name
		c.Seed = device.CellSeed(opt.Seed, i)
		dev := device.Perfect()
		if c.Topology == CalibHeavyHex {
			dev = device.HeavyHex(c.Seed)
		}
		if c.Calibrated {
			snap := cal
			if snap == nil {
				snap = device.SyntheticCalibration(c.Seed, jrows, jcols)
			}
			dev = dev.WithCalibration(snap)
		}
		var defects *device.DefectSchedule
		if c.Defects > 0 {
			defects = device.RandomDefectSchedule(c.Seed, jrows, jcols, c.Defects, horizon)
		}
		c.Device = dev.String()
		c.Survived = true
		// Per-tile logical-rate spread on the realized junction grid.
		rates := resource.TileLogicalRates(dev.Instance(jrows, jcols), tech, d)
		c.RateMin, c.RateMax, c.RateMean = resource.RateSpread(rates)
		r, err := braid.SimulateContext(ctx, w.Circuit, braid.Policy6, braid.Config{
			Distance: d,
			Seed:     opt.Seed,
			Device:   dev,
			Defects:  defects,
		})
		if err != nil {
			if errors.Is(err, scerr.ErrUnroutable) {
				c.Survived = false
				return c, nil
			}
			return CalibCell{}, fmt.Errorf("sweep: calib %s trial %d: %w", c.Topology, c.Trial, err)
		}
		c.Cycles = r.ScheduleCycles
		c.Ratio = r.Ratio
		c.Adaptive = r.AdaptiveRoutes
		c.Reroutes = r.Reroutes
		c.Tiles = r.Tiles
		c.LogicalRate = resource.ScheduleLogicalRate(r.Tiles, r.ScheduleCycles, c.RateMean)
		return c, nil
	})
}
