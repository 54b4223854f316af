package sweep_test

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"surfcomm"
)

// The evaluation studies fan their cells out with Map, and each cell is
// pure, so a pooled study must equal the serial one record for record
// and byte for byte — the property that makes the pool safe to
// substitute anywhere. These tests hold every study to it, hold the
// Figures 7–9 cells to the serial toolflow sweeps they fan out, and
// hold the pooled characterization to a one-worker one.

// studySeed is the toolchain seed every test here runs at.
const studySeed = 1

// runStudies runs the named studies at distance 5 (opts may override it)
// on a toolchain with the given worker count and returns their records
// and printed tables.
func runStudies(t *testing.T, workers int, names []string, p surfcomm.StudyParams, opts ...surfcomm.ToolchainOption) ([]surfcomm.SweepCellResult, []byte) {
	t.Helper()
	opts = append([]surfcomm.ToolchainOption{surfcomm.WithDistance(5), surfcomm.WithSeed(studySeed), surfcomm.WithWorkers(workers)}, opts...)
	tc, err := surfcomm.NewToolchain(opts...)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	recs, err := tc.RunStudies(context.Background(), names, p, &out)
	if err != nil {
		t.Fatal(err)
	}
	return recs, out.Bytes()
}

// serialEqualsPooled runs the named studies on one worker and on eight,
// fails unless their records and tables are identical, and returns the
// serial records of the named studies' own cells (characterization
// records dropped).
func serialEqualsPooled(t *testing.T, names []string, p surfcomm.StudyParams, opts ...surfcomm.ToolchainOption) []surfcomm.SweepCellResult {
	t.Helper()
	serial, serialTable := runStudies(t, 1, names, p, opts...)
	wide, wideTable := runStudies(t, 8, names, p, opts...)
	if !reflect.DeepEqual(serial, wide) {
		t.Fatalf("%v: pooled records differ from serial:\n%+v\nvs\n%+v", names, serial, wide)
	}
	if !bytes.Equal(serialTable, wideTable) {
		t.Fatalf("%v: pooled table differs from serial:\n%s\nvs\n%s", names, serialTable, wideTable)
	}
	var own []surfcomm.SweepCellResult
	for _, r := range serial {
		if r.Study != "characterization" {
			own = append(own, r)
		}
	}
	return own
}

// serialModels characterizes the reference suite on one worker, once,
// at the distance and seed runStudies uses.
var serialModels = sync.OnceValues(func() ([]surfcomm.AppModel, error) {
	return characterize(1)
})

// characterize runs Toolchain.Models at the study distance and seed on
// the given number of workers.
func characterize(workers int) ([]surfcomm.AppModel, error) {
	tc, err := surfcomm.NewToolchain(surfcomm.WithDistance(5), surfcomm.WithSeed(studySeed), surfcomm.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	return tc.Models(context.Background())
}

func referenceModels(t *testing.T) []surfcomm.AppModel {
	t.Helper()
	models, err := serialModels()
	if err != nil {
		t.Fatal(err)
	}
	return models
}

func TestCurveParallelEqualsSerial(t *testing.T) {
	const pp = 1e-6
	recs := serialEqualsPooled(t, []string{"fig7", "fig8"}, surfcomm.StudyParams{},
		surfcomm.WithTechnology(surfcomm.Superconducting(pp)))
	// Figure 7 is SQ's curve, Figure 8 SQ's then IM_Fully_Inlined's,
	// each one point per decade over K = 1e0..1e24.
	models := referenceModels(t)
	var want []surfcomm.DesignPoint
	var apps []string
	for _, name := range []string{"SQ", "SQ", "IM_Fully_Inlined"} {
		m, err := surfcomm.ModelFor(models, name)
		if err != nil {
			t.Fatal(err)
		}
		pts, err := surfcomm.Curve(m, pp, 0, 24, 1)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, pts...)
		for range pts {
			apps = append(apps, name)
		}
	}
	if len(recs) != len(want) {
		t.Fatalf("%d curve records, want %d", len(recs), len(want))
	}
	for i, dp := range want {
		r := recs[i]
		got := r.Metrics
		if !strings.HasPrefix(r.Cell, apps[i]+"/") ||
			got["distance"] != float64(dp.Distance) ||
			got["planar_seconds"] != dp.PlanarSeconds || got["dd_seconds"] != dp.DDSeconds ||
			got["planar_qubits"] != dp.PlanarQubits || got["dd_qubits"] != dp.DDQubits ||
			got["space_time_ratio"] != dp.SpaceTimeRatio {
			t.Fatalf("%s %s differs from the serial Curve point %+v: %v", r.Study, r.Cell, dp, got)
		}
	}
}

func TestBoundaryParallelEqualsSerial(t *testing.T) {
	recs := serialEqualsPooled(t, []string{"fig9"}, surfcomm.StudyParams{})
	models := referenceModels(t)
	rates := surfcomm.Figure9ErrorRates()
	if len(recs) != len(models)*len(rates) {
		t.Fatalf("%d boundary records, want %d", len(recs), len(models)*len(rates))
	}
	for mi, m := range models {
		for ri, b := range surfcomm.Boundary(m, rates) {
			r := recs[mi*len(rates)+ri]
			want := b.CrossoverOps
			if b.OffChart {
				want = -1 // the study's off-chart sentinel
			}
			if !strings.HasPrefix(r.Cell, m.Name+"/") || r.Metrics["crossover_k"] != want {
				t.Fatalf("model %s rate %g: record %s %v differs from Boundary %+v", m.Name, rates[ri], r.Cell, r.Metrics, b)
			}
		}
	}
}

// Characterization cells run full compiles on both backends; the pooled
// run must still reproduce the one-worker result exactly.
func TestCharacterizeParallelEqualsSerial(t *testing.T) {
	wide, err := characterize(4)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceModels(t)
	if len(wide) != len(ref) {
		t.Fatalf("%d pooled models, want %d", len(wide), len(ref))
	}
	for i, got := range wide {
		want := ref[i]
		if got.Name != want.Name || got.Parallelism != want.Parallelism ||
			got.MoveFraction != want.MoveFraction || got.CongestionDD != want.CongestionDD {
			t.Fatalf("workload %s: pooled model %+v differs from serial %+v", want.Name, got, want)
		}
	}
}

// The Figure 6 policy grid and the §8.1 EPR window study run a full
// compile per cell, so any state shared across cells would show up
// here as serial/pooled divergence.
func TestFigure6ParallelEqualsSerial(t *testing.T) {
	recs := serialEqualsPooled(t, []string{"fig6"}, surfcomm.StudyParams{})
	if want := len(surfcomm.Fig6Suite()) * len(surfcomm.AllBraidPolicies); len(recs) != want {
		t.Fatalf("%d Figure 6 records, want one per app and policy (%d)", len(recs), want)
	}
}

func TestEPRWindowsParallelEqualsSerial(t *testing.T) {
	recs := serialEqualsPooled(t, []string{"epr"}, surfcomm.StudyParams{}, surfcomm.WithDistance(9))
	// Seven look-ahead windows per application.
	if want := 7 * len(surfcomm.Fig6Suite()); len(recs) != want {
		t.Fatalf("%d EPR window records, want %d", len(recs), want)
	}
}

// TestYieldGridWorkerParity asserts the yield study — cells, derived
// device seeds and realized devices — is identical at any worker count.
func TestYieldGridWorkerParity(t *testing.T) {
	recs := serialEqualsPooled(t, []string{"yield"}, surfcomm.StudyParams{Fractions: []float64{0, 0.03}},
		surfcomm.WithTechnology(surfcomm.Superconducting(1e-8)))
	if len(recs) != 4 {
		t.Fatalf("got %d yield records, want 4 (2 fractions x 2 trials)", len(recs))
	}
}

// TestYieldGridSeedsAndDevices pins the per-cell identity rules: seeds
// derive from base seed + index, device strings name the realization,
// and the zero-fraction cells match the perfect-device baseline.
func TestYieldGridSeedsAndDevices(t *testing.T) {
	recs, _ := runStudies(t, 2, []string{"yield"}, surfcomm.StudyParams{Fractions: []float64{0, 0.02}},
		surfcomm.WithSeed(10), surfcomm.WithTechnology(surfcomm.Superconducting(1e-8)))
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	for i, r := range recs {
		if r.Seed != 10+int64(i) {
			t.Errorf("record %d seed %d, want %d", i, r.Seed, 10+int64(i))
		}
		if r.Device == "" {
			t.Errorf("record %d has empty device string", i)
		}
		if !strings.HasPrefix(r.Cell, "GSE/") {
			t.Errorf("record %d cell %q, want a GSE cell", i, r.Cell)
		}
	}
	// Zero-defect realizations are the perfect grid: both trials agree.
	if recs[0].Metrics["cycles"] != recs[1].Metrics["cycles"] || recs[0].Metrics["ratio"] != recs[1].Metrics["ratio"] {
		t.Errorf("zero-fraction trials differ: %v vs %v", recs[0].Metrics, recs[1].Metrics)
	}
}
