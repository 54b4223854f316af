package sweep

import (
	"context"
	"reflect"
	"testing"

	"surfcomm/internal/apps"
	"surfcomm/internal/surface"
)

// yieldCells enumerates the fraction-major (fraction × trial) cells of a
// yield grid.
func yieldCells(fracs []float64, trials int) []YieldCell {
	var cells []YieldCell
	for _, f := range fracs {
		for t := 0; t < trials; t++ {
			cells = append(cells, YieldCell{DefectFrac: f, Trial: t})
		}
	}
	return cells
}

func gse() apps.Workload { return apps.Fig6Suite()[0] }

// TestYieldGridWorkerParity asserts the yield grid — cells, derived
// device seeds, and realized devices — is bit-identical at any worker
// count.
func TestYieldGridWorkerParity(t *testing.T) {
	cells := yieldCells([]float64{0, 0.03}, 2)
	tech := surface.Superconducting(1e-8)
	serial, err := YieldGrid(context.Background(), Options{Workers: 1, Seed: 1}, gse(), cells, 5, tech, false)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := YieldGrid(context.Background(), Options{Workers: 4, Seed: 1}, gse(), cells, 5, tech, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel yield grid differs from serial:\n%+v\nvs\n%+v", serial, parallel)
	}
}

// TestYieldGridSeedsAndDevices pins the per-cell identity rules: seeds
// derive from base seed + index, device strings name the realization,
// and the zero-fraction cells match the perfect-device baseline.
func TestYieldGridSeedsAndDevices(t *testing.T) {
	cells, err := YieldGrid(context.Background(), Options{Workers: 2, Seed: 10}, gse(),
		yieldCells([]float64{0, 0.02}, 2), 5, surface.Superconducting(1e-8), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	for i, c := range cells {
		if c.Seed != 10+int64(i) {
			t.Errorf("cell %d seed %d, want %d", i, c.Seed, 10+int64(i))
		}
		if c.Device == "" {
			t.Errorf("cell %d has empty device string", i)
		}
		if c.App != "GSE" {
			t.Errorf("cell %d app %q, want GSE", i, c.App)
		}
	}
	// Zero-defect realizations are the perfect grid: both trials agree.
	if cells[0].Cycles != cells[1].Cycles || cells[0].Ratio != cells[1].Ratio {
		t.Errorf("zero-fraction trials differ: %+v vs %+v", cells[0], cells[1])
	}
}
