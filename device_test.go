package surfcomm_test

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"surfcomm"
)

// planDigest FNV-hashes the externally visible identity of a Plan: the
// schedule metrics plus (for braid-family backends) every recorded
// path. Two plans with equal digests compiled bit-identically.
func planDigest(p surfcomm.Plan) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%d/%d/%d/%g/%d:", p.Backend, p.Circuit, p.Distance, p.Seed,
		p.Cycles, p.PhysicalQubits, p.CommOps)
	if p.Braid != nil {
		for _, e := range p.Braid.Schedule {
			fmt.Fprintf(h, "%d/%d/%d/%d/%d:", e.Op, e.Kind, e.Start, e.End, e.Factory)
			for _, n := range e.Path {
				fmt.Fprintf(h, "(%d,%d)", n.Row, n.Col)
			}
		}
	}
	if p.EPR != nil {
		fmt.Fprintf(h, "epr:%d/%d/%d/%d", p.EPR.StallCycles, p.EPR.PeakLiveEPR,
			p.EPR.TotalPairs, p.EPR.ScheduleCycles)
	}
	return h.Sum64()
}

// TestEveryBackendPerfectDeviceBitIdentical is the acceptance property:
// each backend compiled with WithDevice(PerfectDevice()) produces an
// FNV-identical plan to the deviceless toolchain.
func TestEveryBackendPerfectDeviceBitIdentical(t *testing.T) {
	ctx := context.Background()
	base, err := surfcomm.NewToolchain(surfcomm.WithDistance(5), surfcomm.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	perfect, err := surfcomm.NewToolchain(surfcomm.WithDistance(5), surfcomm.WithSeed(1),
		surfcomm.WithDevice(surfcomm.PerfectDevice()))
	if err != nil {
		t.Fatal(err)
	}
	c := must(surfcomm.NewGSE(surfcomm.GSEConfig{M: 10, Steps: 2}))
	record := func(tg *surfcomm.Target) { tg.RecordSchedule = true }
	for _, b := range surfcomm.Backends() {
		pb, err := base.Compile(ctx, b, c, record)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		pp, err := perfect.Compile(ctx, b, c, record)
		if err != nil {
			t.Fatalf("%s on perfect device: %v", b.Name(), err)
		}
		if planDigest(pb) != planDigest(pp) {
			t.Errorf("%s: perfect-device plan digest %x != baseline %x",
				b.Name(), planDigest(pp), planDigest(pb))
		}
		if pp.Device != "perfect" {
			t.Errorf("%s: plan device = %q, want perfect", b.Name(), pp.Device)
		}
	}
}

// TestEveryBackendUnroutable is the acceptance criterion: on a fully
// disconnected device every backend returns an error matching
// ErrUnroutable — not a hang, not a panic.
func TestEveryBackendUnroutable(t *testing.T) {
	ctx := context.Background()
	disconnected := surfcomm.CustomDevice("no-links", 0,
		func(topo *surfcomm.DeviceTopology, _ *rand.Rand) {
			for r := 0; r < topo.Rows(); r++ {
				for c := 0; c < topo.Cols(); c++ {
					topo.DisableLink(surfcomm.Coord{Row: r, Col: c}, surfcomm.Coord{Row: r, Col: c + 1})
					topo.DisableLink(surfcomm.Coord{Row: r, Col: c}, surfcomm.Coord{Row: r + 1, Col: c})
				}
			}
		})
	tc, err := surfcomm.NewToolchain(surfcomm.WithDistance(5), surfcomm.WithSeed(1),
		surfcomm.WithDevice(disconnected))
	if err != nil {
		t.Fatal(err)
	}
	c := must(surfcomm.NewGSE(surfcomm.GSEConfig{M: 10, Steps: 2}))
	for _, b := range surfcomm.Backends() {
		_, err := tc.Compile(ctx, b, c)
		if !errors.Is(err, surfcomm.ErrUnroutable) {
			t.Errorf("%s: err = %v, want ErrUnroutable", b.Name(), err)
		}
	}
}

// TestDefectiveDeviceCompiles smoke-tests the whole pipeline on a
// moderately defective device: braid and surgery compile (or report
// unroutable), plans name the device, and planar either routes around
// the defects or fails fast.
func TestDefectiveDeviceCompiles(t *testing.T) {
	ctx := context.Background()
	dev := surfcomm.RandomYieldDevice(0.04, 3)
	tc, err := surfcomm.NewToolchain(surfcomm.WithDistance(5), surfcomm.WithSeed(1),
		surfcomm.WithDevice(dev))
	if err != nil {
		t.Fatal(err)
	}
	c := must(surfcomm.NewGSE(surfcomm.GSEConfig{M: 10, Steps: 2}))
	for _, b := range surfcomm.Backends() {
		plan, err := tc.Compile(ctx, b, c)
		if errors.Is(err, surfcomm.ErrUnroutable) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		if plan.Device != dev.String() {
			t.Errorf("%s: plan device %q, want %q", b.Name(), plan.Device, dev)
		}
		if plan.Cycles <= 0 {
			t.Errorf("%s: empty schedule", b.Name())
		}
	}
}

// TestYieldGridViaToolchain runs the yield study through the facade and
// checks worker-count invariance end to end, each record's identity
// (the study name, the cell's derived seed, and the realized device it
// compiled on), and that the zero-fraction trials match each other.
func TestYieldGridViaToolchain(t *testing.T) {
	ctx := context.Background()
	params := surfcomm.StudyParams{Fractions: []float64{0, 0.02}}
	run := func(workers int) []surfcomm.SweepCellResult {
		tc, err := surfcomm.NewToolchain(surfcomm.WithDistance(5), surfcomm.WithSeed(1), surfcomm.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := tc.RunStudies(ctx, []string{"yield"}, params, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	serial, parallel := run(1), run(4)
	if len(serial) != 4 || len(parallel) != 4 {
		t.Fatalf("cell counts: %d, %d", len(serial), len(parallel))
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("records differ:\n%+v\nvs\n%+v", serial, parallel)
	}
	for i, r := range serial {
		if r.Study != "yield" || r.Seed != 1+int64(i) || r.Device == "" {
			t.Errorf("record %d identity: study %q seed %d device %q", i, r.Study, r.Seed, r.Device)
		}
	}
	// Zero-defect realizations are the perfect grid: both trials agree.
	if !reflect.DeepEqual(serial[0].Metrics, serial[1].Metrics) {
		t.Errorf("zero-fraction trials differ: %v vs %v", serial[0].Metrics, serial[1].Metrics)
	}
}
