// Package toolflow is the end-to-end design-space pipeline of the paper
// (Fig. 4, §7): it characterizes an application with the compilation
// frontend and both backend simulators at a reference scale, then
// evaluates planar vs. double-defect space-time cost across computation
// sizes (1/p_L) and physical error rates (p_P), producing the data for
// Figures 7, 8 and 9 — absolute scaling, normalized resource ratios
// with their favorability crossover, and the crossover boundary as a
// function of device error rate.
//
// Cost model (documented in DESIGN.md §4.6):
//
//   - Both encodings run at the code distance d(K, p_P) that meets the
//     paper's 50% success target for K logical operations.
//   - Double-defect time: braids are latency-insensitive — extension
//     and shrinkage take one cycle each regardless of distance
//     (Table 1) — so the per-op chain cost is 2 cycles, inflated by the
//     application's measured braid-congestion factor (Fig. 6 engine,
//     Policy 6) and divided by the application's DAG parallelism.
//   - Planar time: one logical timestep of d EC cycles per dependent
//     op, plus teleportation transit — EPR halves swap across the
//     machine diameter at physical speed; just-in-time prefetch hides
//     half of the transit and pipelines moves min(P, 8) deep, and EPR
//     fidelity decay at high p_P inflates transit by a
//     retry/purification factor R = 1/(1 − 3·p_P·sites). Teleportation
//     is the distance- and error-rate-sensitive channel (Table 1).
//   - Space: planar tiles (2d−1)², double-defect tiles (4d−1)(2d−1)
//     plus braid-channel corridors; both provision ancilla factories at
//     the paper's 1:4 balance.
package toolflow

import (
	"context"
	"fmt"
	"math"

	"surfcomm/internal/apps"
	"surfcomm/internal/braid"
	"surfcomm/internal/resource"
	"surfcomm/internal/scerr"
	"surfcomm/internal/simd"
	"surfcomm/internal/surface"
)

// AppModel is the measured characterization of one application at
// reference scale plus its analytic scaling model — everything Evaluate
// needs to cost a design point at any computation size.
type AppModel struct {
	Name string
	// Parallelism is the DAG parallelism factor (Table 2).
	Parallelism float64
	// SchedParallelism is the ops/timestep the Multi-SIMD scheduler
	// achieves at reference scale.
	SchedParallelism float64
	// MoveFraction is EPR-consuming moves (teleports + magic-state
	// deliveries) per logical op on the Multi-SIMD machine.
	MoveFraction float64
	// CongestionDD is the braid schedule/critical-path ratio under
	// Policy 6 — the contention multiplier braids pay (Fig. 6).
	CongestionDD float64
	// QubitsForOps maps computation size K to logical data qubits.
	QubitsForOps func(totalOps float64) float64
}

// referenceDistance is the code distance used for reference-scale
// kernel simulation.
const referenceDistance = 9

// CharacterizeContext measures an application's model from its
// reference circuit: frontend estimate, Multi-SIMD schedule, and braid
// simulation, with ctx threaded through both backend simulations.
func CharacterizeContext(ctx context.Context, w apps.Workload, seed int64) (AppModel, error) {
	est, err := resource.EstimateCircuit(w.Circuit)
	if err != nil {
		return AppModel{}, fmt.Errorf("toolflow: %s: %w", w.Name, err)
	}
	// Region width scales with the machine (a region's broadcast spans
	// its bank); four regions is the Fig. 3a checkerboard.
	width := 32
	if perBank := (w.Circuit.NumQubits + 3) / 4; perBank > width {
		width = perBank
	}
	sched, err := simd.RunContext(ctx, w.Circuit, simd.Config{Regions: 4, Width: width, Seed: seed})
	if err != nil {
		return AppModel{}, fmt.Errorf("toolflow: %s: %w", w.Name, err)
	}
	braidRes, err := braid.SimulateContext(ctx, w.Circuit, braid.Policy6, braid.Config{Distance: referenceDistance, Seed: seed})
	if err != nil {
		return AppModel{}, fmt.Errorf("toolflow: %s: %w", w.Name, err)
	}
	scaling, err := apps.ScalingFor(w.Name)
	if err != nil {
		return AppModel{}, fmt.Errorf("toolflow: %w", err)
	}
	m := AppModel{
		Name:             w.Name,
		Parallelism:      est.Parallelism,
		SchedParallelism: sched.Parallelism(),
		CongestionDD:     braidRes.Ratio,
		QubitsForOps:     scaling.QubitsForOps,
	}
	if est.LogicalOps > 0 {
		m.MoveFraction = float64(len(sched.Moves)) / float64(est.LogicalOps)
	}
	return m, nil
}

// Validate checks the model is usable.
func (m AppModel) Validate() error {
	switch {
	case m.Name == "":
		return scerr.BadConfig("toolflow: model needs a name")
	case m.Parallelism <= 0 || m.SchedParallelism <= 0:
		return scerr.BadConfig("toolflow: %s: non-positive parallelism", m.Name)
	case m.CongestionDD < 1:
		return scerr.BadConfig("toolflow: %s: congestion factor %.2f below 1", m.Name, m.CongestionDD)
	case m.MoveFraction < 0:
		return scerr.BadConfig("toolflow: %s: negative move fraction", m.Name)
	case m.QubitsForOps == nil:
		return scerr.BadConfig("toolflow: %s: missing scaling model", m.Name)
	}
	return nil
}

// DesignPoint is one evaluated (application, K, p_P) configuration —
// one x-position of Figures 7 and 8.
type DesignPoint struct {
	App           string
	TotalOps      float64 // K = 1/p_L (the x axis)
	PhysicalError float64
	Distance      int

	PlanarQubits  float64
	PlanarSeconds float64
	DDQubits      float64
	DDSeconds     float64

	// QubitsRatio, TimeRatio, SpaceTimeRatio are double-defect relative
	// to the planar baseline (Fig. 8's y axes); the crossover is where
	// SpaceTimeRatio crosses 1.
	QubitsRatio    float64
	TimeRatio      float64
	SpaceTimeRatio float64
}

// Model constants (see package comment).
const (
	residualFraction = 0.5 // fraction of swap transit NOT hidden by JIT prefetch
	swapsPerSite     = 2   // physical error exposures per lattice-site hop
	retryFloor       = 0.02
)

// factoryTiles is the ancilla-factory provisioning in logical tiles for
// q data qubits: the paper's 1:4 balance, with at least one full
// magic-state factory (the same floor for both encodings).
func factoryTiles(q float64) float64 {
	return math.Max(q/surface.AncillaDataRatio, surface.MagicFactoryLogicalQubits)
}

// Evaluate costs one design point.
func Evaluate(m AppModel, totalOps, physicalError float64) (DesignPoint, error) {
	if err := m.Validate(); err != nil {
		return DesignPoint{}, err
	}
	if totalOps < 1 {
		return DesignPoint{}, scerr.BadConfig("toolflow: totalOps %g < 1", totalOps)
	}
	tech := surface.Superconducting(physicalError)
	d, err := tech.RequiredDistance(totalOps, 0.5)
	if err != nil {
		return DesignPoint{}, err
	}
	dp := DesignPoint{
		App:           m.Name,
		TotalOps:      totalOps,
		PhysicalError: physicalError,
		Distance:      d,
	}

	q := m.QubitsForOps(totalOps)
	if q < 2 {
		q = 2
	}
	tiles := q + factoryTiles(q) // same logical floorplan size for both

	// --- Space ---
	dp.PlanarQubits = tiles * float64(surface.PlanarTileQubits(d))

	side := math.Sqrt(tiles)
	links := 2 * (side + 1) * side
	channelQubits := links * float64(surface.ChannelWidthQubits(d)) * float64(2*d-1)
	dp.DDQubits = tiles*float64(surface.DoubleDefectTileQubits(d)) + channelQubits

	// --- Time ---
	tc := tech.SyndromeCycleTime()

	// Double defect: per dependent op, one braid — opened, stabilized d
	// cycles, closed, stabilized (Fig. 5: 2(d+1) cycles) — throttled by
	// the measured congestion factor. Braid latency is independent of
	// distance and of machine size: its cost never grows with K beyond
	// the error-correction scaling.
	ddCycles := (totalOps / m.Parallelism) * float64(2*(d+1)) * m.CongestionDD
	dp.DDSeconds = ddCycles * tc

	// Planar: one d-cycle logical timestep per dependent op, plus swap
	// transit for the EPR behind each teleport. Transit crosses the
	// machine diameter at physical-swap speed — the distance-dependent
	// cost of Table 1 — with JIT prefetch hiding half and pipelining
	// concurrent transits at the application's parallelism ("EPRs in
	// planar codes can still be pipelined to avoid congestion", §7.2).
	// At high p_P, unencoded EPR halves decay in transit: the
	// retry/purification factor diverges as p_P·swaps approaches 1,
	// which is what bends the Figure 9 boundary downward on the right.
	// Swap chains move encoded qubits: each site-shift is interleaved
	// into the syndrome schedule, costing one EC cycle per site.
	distTiles := (2.0 / 3.0) * math.Sqrt(tiles)
	sites := distTiles * float64(2*d-1)
	retry := 1.0 / math.Max(retryFloor, 1-float64(swapsPerSite)*physicalError*sites)
	transitCycles := sites * retry
	// Both backends exploit the application's dataflow parallelism (the
	// Multi-SIMD machine supports data and instruction parallelism,
	// §7.2), so P appears symmetrically and the ratio depends on the
	// per-op costs alone.
	planarCycles := (totalOps/m.Parallelism)*float64(d) +
		(totalOps*m.MoveFraction/m.Parallelism)*residualFraction*transitCycles
	dp.PlanarSeconds = planarCycles * tc

	dp.QubitsRatio = dp.DDQubits / dp.PlanarQubits
	dp.TimeRatio = dp.DDSeconds / dp.PlanarSeconds
	dp.SpaceTimeRatio = dp.QubitsRatio * dp.TimeRatio
	return dp, nil
}

// Crossover returns the computation size K* where the double-defect
// space-time product first beats planar (SpaceTimeRatio ≤ 1), scanning
// a log grid over K ∈ [10^0, 10^24]. ok is false when planar stays
// favored across the whole range (the boundary is off the chart) or
// the device is uncorrectable.
func Crossover(m AppModel, physicalError float64) (kStar float64, ok bool) {
	const pointsPerDecade = 4
	prevK := 0.0
	prevRatio := 0.0
	for i := 0; i <= 24*pointsPerDecade; i++ {
		k := math.Pow(10, float64(i)/pointsPerDecade)
		dp, err := Evaluate(m, k, physicalError)
		if err != nil {
			return 0, false
		}
		if dp.SpaceTimeRatio <= 1 {
			if i == 0 || prevRatio <= 1 {
				return k, true
			}
			// Log-linear interpolation between the bracketing points.
			t := (math.Log(prevRatio) - 0) / (math.Log(prevRatio) - math.Log(dp.SpaceTimeRatio))
			return math.Exp(math.Log(prevK) + t*(math.Log(k)-math.Log(prevK))), true
		}
		prevK, prevRatio = k, dp.SpaceTimeRatio
	}
	return 0, false
}

// CurvePoint evaluates one grid index of a log-spaced K sweep:
// K = 10^(i/pointsPerDecade). It is the single cell definition shared
// by the serial CurveContext and the Figures 7–8 studies, which
// evaluate it point by point on the worker pool, so the two can never
// drift.
func CurvePoint(m AppModel, physicalError float64, gridIndex, pointsPerDecade int) (DesignPoint, error) {
	k := math.Pow(10, float64(gridIndex)/float64(pointsPerDecade))
	return Evaluate(m, k, physicalError)
}

// CurveContext evaluates a log-spaced K sweep (Figures 7 and 8
// series), polling ctx per point.
func CurveContext(ctx context.Context, m AppModel, physicalError float64, fromExp, toExp, pointsPerDecade int) ([]DesignPoint, error) {
	done := ctx.Done()
	var out []DesignPoint
	for i := fromExp * pointsPerDecade; i <= toExp*pointsPerDecade; i++ {
		if done != nil {
			select {
			case <-done:
				return nil, scerr.Canceled(ctx)
			default:
			}
		}
		dp, err := CurvePoint(m, physicalError, i, pointsPerDecade)
		if err != nil {
			return nil, err
		}
		out = append(out, dp)
	}
	return out, nil
}

// BoundaryPoint is one (p_P, K*) sample of a Figure 9 line.
type BoundaryPoint struct {
	PhysicalError float64
	CrossoverOps  float64
	OffChart      bool // planar favored across the full K range
}

// BoundaryAt computes one (application, p_P) boundary sample — the
// cell shared by the serial Boundary and the Figure 9 study, which
// evaluates it per (application, p_P) cell on the worker pool.
func BoundaryAt(m AppModel, physicalError float64) BoundaryPoint {
	k, ok := Crossover(m, physicalError)
	return BoundaryPoint{PhysicalError: physicalError, CrossoverOps: k, OffChart: !ok}
}

// Boundary sweeps physical error rates (Figure 9's x axis, 1e-8…1e-3)
// and returns the crossover boundary for the application.
func Boundary(m AppModel, errorRates []float64) []BoundaryPoint {
	out := make([]BoundaryPoint, 0, len(errorRates))
	for _, p := range errorRates {
		out = append(out, BoundaryAt(m, p))
	}
	return out
}

// Figure9ErrorRates is the paper's p_P sweep: 1e-8 (future optimistic)
// through 1e-3 (current technology), two points per decade.
func Figure9ErrorRates() []float64 {
	var out []float64
	for e := -8.0; e <= -3.0; e += 0.5 {
		out = append(out, math.Pow(10, e))
	}
	return out
}

// ReferenceWorkloads is the standard suite (plus both IM inlining
// variants) at simulation scale — the single definition shared by the
// serial and parallel characterization paths.
func ReferenceWorkloads() []apps.Workload {
	workloads := []apps.Workload{
		{Name: "GSE", Circuit: apps.GSE(apps.GSEConfig{M: 10, Steps: 2})},
		{Name: "SQ", Circuit: apps.SQ(apps.SQConfig{N: 8, Iters: 2})},
		{Name: "SHA-1", Circuit: apps.SHA1(apps.SHA1Config{Rounds: 1, WordWidth: 16})},
	}
	return append(workloads, apps.IMVariants(96, 2)...)
}

// ReferenceModelsContext characterizes the reference suite — the
// models behind Figures 7–9 — with ctx threaded through every
// characterization.
func ReferenceModelsContext(ctx context.Context, seed int64) ([]AppModel, error) {
	workloads := ReferenceWorkloads()
	out := make([]AppModel, 0, len(workloads))
	for _, w := range workloads {
		m, err := CharacterizeContext(ctx, w, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// ModelFor picks a model by name from a characterized set. A missing
// name reports an error matching scerr.ErrUnknownModel.
func ModelFor(models []AppModel, name string) (AppModel, error) {
	for _, m := range models {
		if m.Name == name {
			return m, nil
		}
	}
	return AppModel{}, scerr.UnknownModel("toolflow: no model named %q", name)
}
