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

// CalibOptions selects the calibration-study grid.
type CalibOptions struct {
	// Distance is the code distance; zero selects 9.
	Distance int
	// App restricts the grid to one application; empty selects GSE.
	App string
	// Trials is the number of independent calibrations (and defect
	// schedules) per topology; zero selects 2.
	Trials int
	// DefectEvents is the number of live coupler deaths per defect
	// cell; zero selects 3.
	DefectEvents int
	// PhysicalError is the uniform p_P baseline; zero selects 1e-3
	// (calibration-scale error rates, so spreads are visible).
	PhysicalError float64
	// SquareOnly drops the heavy-hex rows; the zero value keeps them
	// (the topology comparison is the study's point).
	SquareOnly bool
	// Calibration overrides the synthetic snapshot with a loaded one
	// (applied to every calibrated cell; the cell seed then only
	// drives defect schedules).
	Calibration *device.Calibration
}

func (o CalibOptions) withDefaults() CalibOptions {
	if o.Distance == 0 {
		o.Distance = 9
	}
	if o.App == "" {
		o.App = "GSE"
	}
	if o.Trials == 0 {
		o.Trials = 2
	}
	if o.DefectEvents == 0 {
		o.DefectEvents = 3
	}
	if o.PhysicalError == 0 {
		o.PhysicalError = 1e-3
	}
	return o
}

// calibCellSpec is one grid coordinate before execution.
type calibCellSpec struct {
	topology   string
	calibrated bool
	defects    int
	trial      int
}

// CalibGrid runs the calibration study. A serial pre-pass compiles the
// workload once on the perfect square device to learn the junction-grid
// dimensions (shared by every cell — neither heavy-hex nor calibration
// kills tiles) and the baseline schedule length that scales the
// defect-event horizon; the grid cells then fan across the worker pool,
// each deriving its seed from the base seed and cell index.
func CalibGrid(ctx context.Context, opt Options, copt CalibOptions) ([]CalibCell, error) {
	copt = copt.withDefaults()
	var workload *apps.Workload
	for _, w := range apps.Fig6Suite() {
		if strings.EqualFold(w.Name, copt.App) {
			workload = &w
			break
		}
	}
	if workload == nil {
		return nil, scerr.BadConfig("sweep: unknown calib app %q", copt.App)
	}
	tech := surface.Superconducting(copt.PhysicalError)
	base, err := braid.SimulateContext(ctx, workload.Circuit, braid.Policy6, braid.Config{
		Distance:       copt.Distance,
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

	topologies := []string{CalibSquare}
	if !copt.SquareOnly {
		topologies = append(topologies, CalibHeavyHex)
	}
	var cells []calibCellSpec
	for _, topo := range topologies {
		cells = append(cells, calibCellSpec{topology: topo})
	}
	for t := 0; t < copt.Trials; t++ {
		for _, topo := range topologies {
			cells = append(cells, calibCellSpec{topology: topo, calibrated: true, trial: t})
		}
	}
	for t := 0; t < copt.Trials; t++ {
		for _, topo := range topologies {
			cells = append(cells, calibCellSpec{topology: topo, defects: copt.DefectEvents, trial: t})
		}
	}

	return Map(ctx, opt, cells, func(i int, c calibCellSpec) (CalibCell, error) {
		seed := device.CellSeed(opt.Seed, i)
		dev := device.Perfect()
		if c.topology == CalibHeavyHex {
			dev = device.HeavyHex(seed)
		}
		if c.calibrated {
			cal := copt.Calibration
			if cal == nil {
				cal = device.SyntheticCalibration(seed, jrows, jcols)
			}
			dev = dev.WithCalibration(cal)
		}
		var defects *device.DefectSchedule
		if c.defects > 0 {
			defects = device.RandomDefectSchedule(seed, jrows, jcols, c.defects, horizon)
		}
		out := CalibCell{
			App:        workload.Name,
			Topology:   c.topology,
			Calibrated: c.calibrated,
			Defects:    c.defects,
			Trial:      c.trial,
			Seed:       seed,
			Device:     dev.String(),
			Survived:   true,
		}
		// Per-tile logical-rate spread on the realized junction grid.
		topo := dev.Instance(jrows, jcols)
		rates := resource.TileLogicalRates(topo, tech, copt.Distance)
		out.RateMin, out.RateMax, out.RateMean = resource.RateSpread(rates)
		r, err := braid.SimulateContext(ctx, workload.Circuit, braid.Policy6, braid.Config{
			Distance: copt.Distance,
			Seed:     opt.Seed,
			Device:   dev,
			Defects:  defects,
		})
		if err != nil {
			if errors.Is(err, scerr.ErrUnroutable) {
				out.Survived = false
				return out, nil
			}
			return CalibCell{}, fmt.Errorf("sweep: calib %s trial %d: %w", c.topology, c.trial, err)
		}
		out.Cycles = r.ScheduleCycles
		out.Ratio = r.Ratio
		out.Adaptive = r.AdaptiveRoutes
		out.Reroutes = r.Reroutes
		out.Tiles = r.Tiles
		out.LogicalRate = resource.ScheduleLogicalRate(r.Tiles, r.ScheduleCycles, out.RateMean)
		return out, nil
	})
}
