package surfcomm

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"

	"surfcomm/internal/device"
	"surfcomm/internal/scerr"
	"surfcomm/internal/sweep"
)

// Study is one evaluation study of the reproduction, declared once: the
// name that selects it, the grid cells it evaluates on the toolchain's
// worker pool, the record each cell projects to, and the table it
// prints. Each cell is labelled once: the label is its record's cell
// and the Cell of its progress event, whose Stage is the study's Name.
type Study struct {
	// Name selects the study (it is the cmd/sweep flag).
	Name string
	// Help describes the study (it is the cmd/sweep flag usage).
	Help string
	// Default marks the studies RunStudies runs when none is named:
	// Figures 7–9 and the §8.1 EPR sweep.
	Default bool

	models bool // needs the characterized reference suite
	run    func(context.Context, *studyRun) error
}

// StudyParams carries the study settings no ToolchainOption covers: the
// cmd/sweep flags that pick a workload or shape one study's grid.
// Distance, technology, seed, workers and decoder strategy come from
// the Toolchain. Study cells compile through the Backends at targets
// the studies build themselves, each on the devices its study fixes, so
// WithDevice, WithCalibration and WithDefectSchedule do not apply to
// studies. The zero value runs every study at its defaults.
type StudyParams struct {
	// App restricts fig6 to one application and picks the yield and
	// calib workload (case-insensitive; empty selects every application
	// for fig6 and GSE otherwise). Unknown names fail with ErrBadConfig.
	App string
	// Verify records every fig6 static schedule and replay-validates it.
	Verify bool
	// Fractions are the yield study's defect fractions, each in [0,1)
	// (empty selects 0, 0.02 and 0.05).
	Fractions []float64
	// Clustered gives the yield study spatially correlated defects
	// instead of independent random yield.
	Clustered bool
	// SquareOnly drops the calib study's heavy-hex rows.
	SquareOnly bool
	// Calibration replaces the calib study's synthetic per-cell
	// snapshots with one loaded snapshot.
	Calibration *Calibration
}

// studies is the registry in run order; cmd/sweep's study flags, its
// printed tables and its records all follow it.
var studies = []Study{
	{Name: "table1", Help: "Table 1: communication-method comparison (opt-in)", run: runTable1},
	{Name: "table2", Help: "Table 2: application summary with parallelism factors (opt-in)", run: runTable2},
	{Name: "fig6", Help: "Figure 6: braid policy grid (opt-in)", run: runFigure6},
	{Name: "fig7", Help: "Figure 7: absolute scaling", Default: true, models: true, run: runFigure7},
	{Name: "fig8", Help: "Figure 8: resource ratios and crossover", Default: true, models: true, run: runFigure8},
	{Name: "fig9", Help: "Figure 9: crossover boundaries", Default: true, models: true, run: runFigure9},
	{Name: "epr", Help: "§8.1: EPR window sweep", Default: true, run: runEPR},
	{Name: "decoder", Help: "§2.3: Monte Carlo error-model validation grid (opt-in)", run: runDecoder},
	{Name: "decode", Help: "decoder strategy benchmark: parity + work-op crossover for mwpm vs unionfind (opt-in)", run: runDecode},
	{Name: "modular", Help: "hierarchical incremental-compilation study: monolithic vs per-module caching (opt-in)", run: runModular},
	{Name: "yield", Help: "communication-yield study: braid compiles on defective devices (opt-in)", run: runYield},
	{Name: "calib", Help: "calibration study: square vs heavy-hex, uniform vs calibrated, live-defect survival (opt-in)", run: runCalib},
}

// Studies lists the registered studies in run order.
func Studies() []Study { return slices.Clone(studies) }

// RunStudies runs the named studies in registry order (the Default
// studies when names is empty) on the toolchain's worker pool, writes
// their tables to w separated by blank lines, and returns every cell's
// record. When a study needs the characterized reference suite it is
// characterized once, and its records come first. Unknown names fail
// with ErrBadConfig before any study runs. Records and tables are
// byte-identical at any worker count, apart from the modular study's
// wall-clock timings.
func (tc *Toolchain) RunStudies(ctx context.Context, names []string, p StudyParams, w io.Writer) ([]SweepCellResult, error) {
	for _, name := range names {
		if !slices.ContainsFunc(studies, func(st Study) bool { return st.Name == name }) {
			valid := make([]string, len(studies))
			for i, st := range studies {
				valid[i] = st.Name
			}
			return nil, scerr.BadConfig("study: unknown study %q (valid: %s)", name, strings.Join(valid, ", "))
		}
	}
	var run []Study
	for _, st := range studies {
		if slices.Contains(names, st.Name) || len(names) == 0 && st.Default {
			run = append(run, st)
		}
	}
	out := &stickyWriter{w: w}
	s := &studyRun{tc: tc, p: p, w: out}
	if slices.ContainsFunc(run, func(st Study) bool { return st.models }) {
		if err := s.characterize(ctx); err != nil {
			return nil, err
		}
	}
	for i, st := range run {
		if i > 0 {
			s.println()
		}
		s.stage = st.Name
		if err := st.run(ctx, s); err != nil {
			return nil, err
		}
		if out.err != nil {
			return nil, fmt.Errorf("study: writing %s: %w", st.Name, out.err)
		}
	}
	return s.records, nil
}

// studyRun is the state one RunStudies call shares across its studies.
type studyRun struct {
	tc      *Toolchain
	p       StudyParams
	w       io.Writer
	stage   string     // the running study's name
	models  []AppModel // the characterized reference suite, if needed
	records []SweepCellResult
}

// characterize measures the reference suite behind Figures 7–9 and
// records each model.
func (s *studyRun) characterize(ctx context.Context) error {
	models, err := s.tc.Models(ctx)
	if err != nil {
		return err
	}
	s.models = models
	for _, m := range models {
		s.record("characterization", m.Name, map[string]float64{
			"parallelism":   m.Parallelism,
			"move_fraction": m.MoveFraction,
			"congestion_dd": m.CongestionDD,
		})
	}
	return nil
}

// opts returns grid options on the toolchain's pool whose progress
// events name the running study and the completed cell's label.
func (s *studyRun) opts(labels []string) sweep.Options {
	return s.tc.sweepOpts(s.stage, func(i int) string { return labels[i] })
}

// record appends one cell's record, at the toolchain's seed on the
// perfect device; the caller overrides the fields that differ.
func (s *studyRun) record(study, cell string, metrics map[string]float64) *SweepCellResult {
	s.records = append(s.records, SweepCellResult{
		Study:   study,
		Cell:    cell,
		Seed:    s.tc.seed,
		Metrics: metrics,
		Device:  device.PresetPerfect,
	})
	return &s.records[len(s.records)-1]
}

func (s *studyRun) printf(format string, a ...any) { fmt.Fprintf(s.w, format, a...) }

func (s *studyRun) println(a ...any) { fmt.Fprintln(s.w, a...) }

// studyDefaultApp is the yield and calib workload when StudyParams.App
// is empty: the fastest braid workload.
const studyDefaultApp = "GSE"

// app resolves the yield and calib workload.
func (s *studyRun) app() (Workload, error) {
	name := s.p.App
	if name == "" {
		name = studyDefaultApp
	}
	suite, err := studyApps(name)
	if err != nil {
		return Workload{}, err
	}
	return suite[0], nil
}

// studyApps returns the Figure 6 suite, or its one application named
// app (case-insensitive); an unknown name fails with ErrBadConfig
// listing the valid ones.
func studyApps(app string) ([]Workload, error) {
	suite := Fig6Suite()
	if app == "" {
		return suite, nil
	}
	names := make([]string, len(suite))
	for i, w := range suite {
		if strings.EqualFold(w.Name, app) {
			return suite[i : i+1], nil
		}
		names[i] = w.Name
	}
	return nil, scerr.BadConfig("study: unknown app %q (valid: %s)", app, strings.Join(names, ", "))
}

// stickyWriter keeps the first write error, so the study tables need no
// per-line checks.
type stickyWriter struct {
	w   io.Writer
	err error
}

func (sw *stickyWriter) Write(b []byte) (int, error) {
	if sw.err != nil {
		return 0, sw.err
	}
	n, err := sw.w.Write(b)
	sw.err = err
	return n, err
}
