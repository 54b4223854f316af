package surfcomm

import (
	"context"
	"fmt"

	"surfcomm/internal/apps"
	"surfcomm/internal/decoder"
	"surfcomm/internal/modcompile"
	"surfcomm/internal/scerr"
	"surfcomm/internal/surface"
	"surfcomm/internal/sweep"
)

// Event is one structured progress notification from a Toolchain run:
// which stage produced it, which grid cell completed, and how far the
// grid has progressed. Events let callers stream partial results of
// wide studies instead of waiting for the full grid. The serving layer
// streams the same type, one JSON object per line, as the stage lines
// of a streaming /compile; the JSON field order below is that wire
// order.
type Event struct {
	// Stage names the pipeline stage: "characterize", "compile",
	// "decoder" (MeasureLogicalErrorRate), or the Name of the running
	// Study, whose events label each completed cell with its record's
	// cell (the serving layer adds its own request stages).
	Stage string `json:"stage"`
	// Backend is the compiling backend's name (compile events only).
	Backend string `json:"backend,omitempty"`
	// Cell labels the completed grid cell, when the stage has one.
	Cell string `json:"cell,omitempty"`
	// Digest is the serving layer's compile digest (its resolve stage
	// only); toolchain runs leave it empty.
	Digest string `json:"digest,omitempty"`
	// Index is the completed cell's 0-based index; Total is the grid
	// size. On pooled runs events may arrive out of index order.
	Index int `json:"-"`
	Total int `json:"-"`
}

// ToolchainOption configures a Toolchain; invalid options surface from
// NewToolchain as errors matching ErrBadConfig.
type ToolchainOption func(*Toolchain) error

// WithPolicy selects the braid prioritization policy (default Policy6,
// the paper's combined heuristic).
func WithPolicy(p BraidPolicy) ToolchainOption {
	return func(tc *Toolchain) error {
		if p < Policy0 || p > Policy6 {
			return scerr.BadConfig("toolchain: unknown policy %d", int(p))
		}
		tc.policy = p
		return nil
	}
}

// WithDistance selects the surface code distance (default 9), at most
// 999: the largest distance Technology.RequiredDistance searches.
func WithDistance(d int) ToolchainOption {
	return func(tc *Toolchain) error {
		if d < 1 || d > surface.MaxDistance {
			return scerr.BadConfig("toolchain: distance %d outside [1, %d]", d, surface.MaxDistance)
		}
		tc.distance = d
		return nil
	}
}

// WithTechnology selects the device technology (default the baseline
// superconducting technology at p_P = 1e-8).
func WithTechnology(t Technology) ToolchainOption {
	return func(tc *Toolchain) error {
		if err := t.Validate(); err != nil {
			return scerr.BadConfig("toolchain: %v", err)
		}
		tc.tech = t
		return nil
	}
}

// WithWorkers bounds the evaluation-grid worker pool; 0 (the default)
// selects GOMAXPROCS, 1 forces serial runs.
func WithWorkers(n int) ToolchainOption {
	return func(tc *Toolchain) error {
		if n < 0 {
			return scerr.BadConfig("toolchain: negative worker count %d", n)
		}
		tc.workers = n
		return nil
	}
}

// WithDevice selects the physical device topology every backend
// compiles onto (default the perfect uniform grid). Defective devices
// make impossible routes fail with errors matching ErrUnroutable; a
// PerfectDevice (or nil) keeps every result bit-identical to the
// ideal-grid pipeline.
func WithDevice(d *Device) ToolchainOption {
	return func(tc *Toolchain) error {
		tc.device = d
		return nil
	}
}

// WithCalibration attaches a calibration snapshot to the toolchain's
// device: every backend compiles onto the calibrated fabric
// (heterogeneous link weights, per-tile error rates, cost-priced
// routing). Composes with WithDevice regardless of option order; nil
// detaches.
func WithCalibration(cal *Calibration) ToolchainOption {
	return func(tc *Toolchain) error {
		tc.calibration = cal
		return nil
	}
}

// WithDefectSchedule installs a live-defect schedule: couplers that die
// at given cycles mid-execution. The braid and surgery backends tear
// down and re-route in-flight braids around each death; runs fail with
// ErrUnroutable only when the surviving fabric disconnects. Nil
// detaches.
func WithDefectSchedule(s *DefectSchedule) ToolchainOption {
	return func(tc *Toolchain) error {
		tc.defects = s
		return nil
	}
}

// WithSeed sets the base seed for layout, partitioning, and
// characterization (default 1). The seed is part of every result's
// identity: equal seeds reproduce byte-identical schedules and records.
func WithSeed(s int64) ToolchainOption {
	return func(tc *Toolchain) error {
		tc.seed = s
		return nil
	}
}

// WithDecoderStrategy selects the decoding algorithm behind
// MeasureLogicalErrorRate by name: "mwpm" (the matching-based default)
// or "unionfind" (the almost-linear-time union-find decoder). Unknown
// names fail with ErrBadConfig listing the registered strategies; the
// empty name selects the default.
func WithDecoderStrategy(name string) ToolchainOption {
	return func(tc *Toolchain) error {
		s, err := decoder.StrategyByName(name)
		if err != nil {
			return err
		}
		tc.decodeStrategy = s
		return nil
	}
}

// WithProgress installs a progress callback. Events are delivered
// serialized (never concurrently), in completion order.
func WithProgress(fn func(Event)) ToolchainOption {
	return func(tc *Toolchain) error {
		tc.progress = fn
		return nil
	}
}

// Toolchain is the end-to-end compilation pipeline of the paper's
// toolflow (Fig. 4) behind one entry point: it characterizes
// applications, compiles them through the interchangeable communication
// backends, and costs design points across the evaluation grids of
// Figures 6–9 — with one shared option set (policy, distance,
// technology, workers, seed), cooperative cancellation on every
// long-running path, and structured progress events.
//
//	tc, _ := surfcomm.NewToolchain(
//		surfcomm.WithPolicy(surfcomm.Policy6),
//		surfcomm.WithWorkers(8),
//	)
//	plan, err := tc.Compile(ctx, surfcomm.BraidBackend{}, circ)
type Toolchain struct {
	distance       int
	tech           Technology
	policy         BraidPolicy
	workers        int
	seed           int64
	device         *Device
	calibration    *Calibration
	defects        *DefectSchedule
	decodeStrategy decoder.Strategy
	progress       func(Event)
	modCache       ModuleCache
	stitchMemo     *modcompile.StitchMemo
}

// NewToolchain builds a Toolchain from functional options; option
// errors match ErrBadConfig.
func NewToolchain(opts ...ToolchainOption) (*Toolchain, error) {
	tc := &Toolchain{
		distance: 9,
		tech:     Superconducting(1e-8),
		policy:   Policy6,
		seed:     1,
		// Every toolchain carries a stitch memo: it is empty (and free)
		// until the first hierarchical compile, and clones share it, so
		// serving layers that clone per request still reuse the linker's
		// placement work across structurally identical programs.
		stitchMemo: modcompile.NewStitchMemo(),
	}
	for _, opt := range opts {
		if err := opt(tc); err != nil {
			return nil, err
		}
	}
	return tc, nil
}

// Target returns the compilation target derived from the toolchain's
// options.
func (tc *Toolchain) Target() Target {
	return Target{
		Distance:   tc.distance,
		Technology: tc.tech,
		Policy:     tc.policy,
		Seed:       tc.seed,
		Window:     JITWindowAuto,
		Device:     tc.device.WithCalibration(tc.calibration),
		Defects:    tc.defects,
	}
}

// Calibration returns the toolchain's attached calibration snapshot
// (nil when uniform) — serving layers report its digest and age from
// here.
func (tc *Toolchain) Calibration() *Calibration { return tc.calibration }

// Workers returns the WithWorkers pool bound (0 = GOMAXPROCS), so
// layers above the toolchain (the serving batch pool) can size
// themselves consistently.
func (tc *Toolchain) Workers() int { return tc.workers }

func (tc *Toolchain) emit(ev Event) {
	if tc.progress != nil {
		tc.progress(ev)
	}
}

// sweepOpts builds grid options that forward cell completions as
// progress events.
func (tc *Toolchain) sweepOpts(stage string, label func(i int) string) sweep.Options {
	opt := sweep.Options{Workers: tc.workers}
	if tc.progress != nil {
		opt.Progress = func(i, total int) {
			ev := Event{Stage: stage, Index: i, Total: total}
			if label != nil {
				ev.Cell = label(i)
			}
			tc.progress(ev)
		}
	}
	return opt
}

// Compile lowers a circuit onto one backend at the toolchain's target.
// Optional override functions adjust the target for this call only
// (e.g. a fixed placement or an ablation knob). A failure names the
// backend; a success emits one "compile" progress event.
func (tc *Toolchain) Compile(ctx context.Context, b Backend, c *Circuit, override ...func(*Target)) (Plan, error) {
	if b == nil {
		return Plan{}, scerr.BadConfig("toolchain: nil backend")
	}
	target := tc.resolveTarget(override)
	plan, err := b.Compile(ctx, c, &target)
	if err != nil {
		return Plan{}, fmt.Errorf("toolchain: %s: %w", b.Name(), err)
	}
	tc.emit(Event{Stage: "compile", Backend: b.Name(), Cell: plan.Circuit, Total: 1})
	return plan, nil
}

// resolveTarget is the toolchain's target with the per-call overrides
// applied in order (nil overrides are skipped).
func (tc *Toolchain) resolveTarget(override []func(*Target)) Target {
	t := tc.Target()
	for _, fn := range override {
		if fn != nil {
			fn(&t)
		}
	}
	return t
}

// studyTarget is the target every study cell and characterization
// compiles at: the toolchain's distance and seed, Policy 6 (fig6 and
// table1 set their own), and the device and live defects the caller
// fixes (nil for the perfect grid). It is built afresh rather than from
// Target, so the toolchain's device options never reach a study or a
// model.
func (tc *Toolchain) studyTarget(dev *Device, defects *DefectSchedule) *Target {
	return &Target{Distance: tc.distance, Seed: tc.seed, Policy: Policy6, Device: dev, Defects: defects}
}

// Characterize measures application models across the worker pool,
// emitting one "characterize" event per workload. Each workload
// compiles through PlanarBackend and BraidBackend at the study target:
// MoveFraction is the planar plan's SIMD moves per logical op and
// CongestionDD the braid plan's schedule/critical-path ratio. Results
// are identical at any worker count.
func (tc *Toolchain) Characterize(ctx context.Context, ws []Workload) ([]AppModel, error) {
	opt := tc.sweepOpts("characterize", func(i int) string { return ws[i].Name })
	return sweep.Map(ctx, opt, ws, func(_ int, w Workload) (AppModel, error) {
		scaling, err := apps.ScalingFor(w.Name)
		if err != nil {
			return AppModel{}, fmt.Errorf("toolchain: characterize: %w", err)
		}
		target := tc.studyTarget(nil, nil)
		planar, err := PlanarBackend{}.Compile(ctx, w.Circuit, target)
		if err != nil {
			return AppModel{}, fmt.Errorf("toolchain: characterize %s: planar: %w", w.Name, err)
		}
		braided, err := BraidBackend{}.Compile(ctx, w.Circuit, target)
		if err != nil {
			return AppModel{}, fmt.Errorf("toolchain: characterize %s: braid: %w", w.Name, err)
		}
		est, err := EstimateCircuit(w.Circuit)
		if err != nil {
			return AppModel{}, fmt.Errorf("toolchain: characterize %s: %w", w.Name, err)
		}
		m := AppModel{
			Name:         w.Name,
			Parallelism:  est.Parallelism,
			CongestionDD: braided.Braid.Ratio,
			QubitsForOps: scaling.QubitsForOps,
		}
		if est.LogicalOps > 0 {
			m.MoveFraction = float64(len(planar.SIMD.Moves)) / float64(est.LogicalOps)
		}
		return m, nil
	})
}

// Models characterizes the reference suite — the app models behind
// Figures 7–9.
func (tc *Toolchain) Models(ctx context.Context) ([]AppModel, error) {
	return tc.Characterize(ctx, apps.ReferenceSuite())
}

// MeasureLogicalErrorRate runs the code-capacity decoding Monte Carlo
// (one perfectly measured round per trial) at the toolchain's seed,
// decoding trials across the WithWorkers pool. The
// failure count is bit-identical at any worker count (trial randomness
// is drawn sequentially; only the decoding work is pooled).
func (tc *Toolchain) MeasureLogicalErrorRate(ctx context.Context, d int, p float64, trials int) (DecoderResult, error) {
	cfg := decoder.Config{Workers: tc.workers, Strategy: tc.decodeStrategy}
	res, err := measureLogicalRate(ctx, d, p, trials, tc.seed, cfg)
	if err != nil {
		return DecoderResult{}, fmt.Errorf("toolchain: %w", err)
	}
	tc.emit(Event{Stage: "decoder", Cell: decoderLabel(d, p), Total: 1})
	return res, nil
}
