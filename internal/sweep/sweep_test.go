package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"surfcomm/internal/apps"
	"surfcomm/internal/braid"
	"surfcomm/internal/scerr"
	"surfcomm/internal/teleport"
	"surfcomm/internal/toolflow"
)

func TestMapPreservesOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 3, 16, 0} {
		out, err := Map(context.Background(), Options{Workers: workers}, items, func(i, item int) (int, error) {
			return item * item, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), Options{}, nil, func(i, item int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty map: out=%v err=%v", out, err)
	}
}

// The error surface must be deterministic: whatever the worker count,
// the reported error is the lowest-indexed failing cell's.
func TestMapFirstErrorDeterministic(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, workers := range []int{1, 4, 8} {
		_, err := Map(context.Background(), Options{Workers: workers}, items, func(i, item int) (int, error) {
			if item%2 == 1 {
				return 0, fmt.Errorf("cell %d failed", item)
			}
			return item, nil
		})
		if err == nil || err.Error() != "cell 1 failed" {
			t.Fatalf("workers=%d: err = %v, want cell 1 failed", workers, err)
		}
	}
}

func TestMapPartialResultsOnError(t *testing.T) {
	out, err := Map(context.Background(), Options{Workers: 2}, []int{1, 2, 3}, func(i, item int) (int, error) {
		if item == 2 {
			return 0, errors.New("boom")
		}
		return item * 10, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if out[0] != 10 || out[2] != 30 {
		t.Fatalf("partial results lost: %v", out)
	}
}

func syntheticModel(name string, congestion float64) toolflow.AppModel {
	return toolflow.AppModel{
		Name:             name,
		Parallelism:      2,
		SchedParallelism: 2,
		MoveFraction:     0.5,
		CongestionDD:     congestion,
		QubitsForOps:     func(k float64) float64 { return 8 * math.Cbrt(k) },
	}
}

// Grid cells are pure, so a pooled run must equal the serial one
// value-for-value — the property that makes the parallel runner safe to
// substitute anywhere.
func TestCurveParallelEqualsSerial(t *testing.T) {
	m := syntheticModel("synthetic", 1.8)
	serial, err := Curve(context.Background(), Options{Workers: 1}, m, 1e-6, 0, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Curve(context.Background(), Options{Workers: 8}, m, 1e-6, 0, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(wide) {
		t.Fatalf("lengths differ: %d vs %d", len(serial), len(wide))
	}
	for i := range serial {
		if serial[i] != wide[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, serial[i], wide[i])
		}
	}
	// And the parallel grid must agree with the serial toolflow sweep.
	ref, err := toolflow.Curve(m, 1e-6, 0, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if ref[i] != wide[i] {
			t.Fatalf("point %d differs from toolflow.Curve: %+v vs %+v", i, ref[i], wide[i])
		}
	}
}

func TestBoundaryParallelEqualsSerial(t *testing.T) {
	models := []toolflow.AppModel{
		syntheticModel("serial-app", 1.1),
		syntheticModel("parallel-app", 3.2),
	}
	rates := toolflow.Figure9ErrorRates()
	serial, err := Boundary(context.Background(), Options{Workers: 1}, models, rates)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Boundary(context.Background(), Options{Workers: 8}, models, rates)
	if err != nil {
		t.Fatal(err)
	}
	for mi := range models {
		ref := toolflow.Boundary(models[mi], rates)
		for ri := range rates {
			if serial[mi][ri] != wide[mi][ri] {
				t.Fatalf("model %d rate %d: parallel differs from serial", mi, ri)
			}
			if ref[ri] != wide[mi][ri] {
				t.Fatalf("model %d rate %d: grid differs from toolflow.Boundary", mi, ri)
			}
		}
	}
}

// Characterization cells run full simulations; with small workloads the
// pooled run must still reproduce the serial toolflow result exactly.
func TestCharacterizeParallelEqualsSerial(t *testing.T) {
	workloads := []apps.Workload{
		{Name: "GSE", Circuit: apps.GSE(apps.GSEConfig{M: 4, Steps: 1})},
		{Name: "IM", Circuit: apps.Ising(apps.IsingConfig{N: 10, Steps: 1}, true)},
	}
	wide, err := Characterize(context.Background(), Options{Workers: 4, Seed: 3}, workloads)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads {
		ref, err := toolflow.Characterize(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		got := wide[i]
		if got.Name != ref.Name || got.Parallelism != ref.Parallelism ||
			got.SchedParallelism != ref.SchedParallelism ||
			got.MoveFraction != ref.MoveFraction || got.CongestionDD != ref.CongestionDD {
			t.Fatalf("workload %s: parallel model %+v differs from serial %+v", w.Name, got, ref)
		}
	}
}

// The remaining two grids — the Figure 6 policy grid and the §8.1 EPR
// window study — must also be worker-count-invariant; each cell is a
// full simulation, so any shared mutable state across cells would show
// up here as serial/parallel divergence.
func TestFigure6ParallelEqualsSerial(t *testing.T) {
	var cells []Figure6Cell
	for _, w := range apps.Fig6Suite() {
		for _, p := range braid.AllPolicies {
			cells = append(cells, Figure6Cell{Workload: w, Policy: p})
		}
	}
	serial, err := Figure6(context.Background(), Options{Workers: 1, Seed: 1}, cells, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Figure6(context.Background(), Options{Workers: 8, Seed: 1}, cells, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(wide) {
		t.Fatalf("grid sizes differ: %d vs %d", len(serial), len(wide))
	}
	for i := range serial {
		if serial[i] != wide[i] {
			t.Fatalf("cell %d differs: %+v vs %+v", i, serial[i], wide[i])
		}
	}
}

func TestEPRWindowsParallelEqualsSerial(t *testing.T) {
	cfg := teleport.Config{Distance: 9}
	serial, err := EPRWindows(context.Background(), Options{Workers: 1, Seed: 1}, apps.Fig6Suite(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := EPRWindows(context.Background(), Options{Workers: 8, Seed: 1}, apps.Fig6Suite(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(wide) {
		t.Fatalf("cell counts differ: %d vs %d", len(serial), len(wide))
	}
	for i := range serial {
		s, w := serial[i], wide[i]
		if s.Name != w.Name || s.Moves != w.Moves || s.Timesteps != w.Timesteps ||
			s.JIT != w.JIT || s.JITIndex != w.JITIndex || len(s.Rows) != len(w.Rows) {
			t.Fatalf("cell %s differs: %+v vs %+v", s.Name, s, w)
		}
		for j := range s.Rows {
			if s.Rows[j] != w.Rows[j] {
				t.Fatalf("cell %s row %d differs: %+v vs %+v", s.Name, j, s.Rows[j], w.Rows[j])
			}
		}
	}
}

// JSON records must serialize identically across runs so BENCH_*.json
// diffs only move when the science moves.
func TestWriteRecordsStable(t *testing.T) {
	cells := []CellResult{
		{Study: "figure6", Cell: "IM/policy6", Seed: 1,
			Metrics: map[string]float64{"ratio": 2.41, "util": 0.27, "cycles": 9000}},
		{Study: "epr", Cell: "SQ/window=88", Seed: 1,
			Metrics: map[string]float64{"peak_live_epr": 12, "stall_cycles": 0}},
	}
	var a, b bytes.Buffer
	if err := WriteRecords(&a, cells); err != nil {
		t.Fatal(err)
	}
	if err := WriteRecords(&b, cells); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("record encoding is not stable")
	}
	if !bytes.Contains(a.Bytes(), []byte(`"cycles": 9000`)) {
		t.Errorf("unexpected encoding:\n%s", a.String())
	}
}

// A canceled context must stop the pool before uncomputed cells run,
// surface an error matching scerr.ErrCanceled, and still serialize any
// progress callbacks that did fire.
func TestMapCancellation(t *testing.T) {
	items := make([]int, 64)
	ctx, cancel := context.WithCancel(context.Background())
	completed := 0
	opt := Options{Workers: 2, Progress: func(i, total int) {
		completed++ // serialized by the runner
		if total != len(items) {
			t.Errorf("progress total = %d, want %d", total, len(items))
		}
		cancel()
	}}
	ran := atomic.Int64{}
	_, err := Map(ctx, opt, items, func(i, item int) (int, error) {
		ran.Add(1)
		time.Sleep(time.Millisecond)
		return item, nil
	})
	if !errors.Is(err, scerr.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if n := ran.Load(); n == 0 || n > 4 {
		t.Errorf("%d cells ran after cancellation, want 1..4", n)
	}
	if completed == 0 {
		t.Error("no progress events delivered")
	}
}

// A pre-canceled context runs nothing at all.
func TestMapPrecanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := atomic.Int64{}
	_, err := Map(ctx, Options{Workers: 4}, make([]int, 16), func(i, item int) (int, error) {
		ran.Add(1)
		return item, nil
	})
	if !errors.Is(err, scerr.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d cells ran under a pre-canceled context", ran.Load())
	}
}
