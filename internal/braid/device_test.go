package braid

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"surfcomm/internal/apps"
	"surfcomm/internal/circuit"
	"surfcomm/internal/device"
	"surfcomm/internal/scerr"
)

// scheduleDigest FNV-hashes a recorded static schedule, path by path —
// the bit-identity fingerprint the perfect-device property test pins.
func scheduleDigest(entries []ScheduleEntry) uint64 {
	h := fnv.New64a()
	for _, e := range entries {
		fmt.Fprintf(h, "%d/%d/%d/%d/%d:", e.Op, e.Kind, e.Start, e.End, e.Factory)
		for _, n := range e.Path {
			fmt.Fprintf(h, "(%d,%d)", n.Row, n.Col)
		}
	}
	return h.Sum64()
}

// TestPerfectDeviceBitIdentical is the refactor's core guarantee: for
// every suite workload and a spread of policies, compiling on
// device.Perfect (and on a zero-defect random-yield device) produces
// FNV-identical schedules to the pre-device engine path.
func TestPerfectDeviceBitIdentical(t *testing.T) {
	for _, w := range apps.Fig6Suite() {
		for _, p := range []Policy{Policy0, Policy4, Policy6} {
			base, err := SimulateContext(context.Background(), w.Circuit, p, Config{Distance: 5, RecordSchedule: true})
			if err != nil {
				t.Fatalf("%s/%v: %v", w.Name, p, err)
			}
			want := scheduleDigest(base.Schedule)
			for name, dev := range map[string]*device.Device{
				"perfect":    device.Perfect(),
				"zero-yield": device.RandomYield(0, 123),
			} {
				got, err := SimulateContext(context.Background(), w.Circuit, p, Config{Distance: 5, RecordSchedule: true, Device: dev})
				if err != nil {
					t.Fatalf("%s/%v on %s: %v", w.Name, p, name, err)
				}
				if d := scheduleDigest(got.Schedule); d != want {
					t.Errorf("%s/%v on %s: schedule digest %x != baseline %x", w.Name, p, name, d, want)
				}
				if got.ScheduleCycles != base.ScheduleCycles || got.Ratio != base.Ratio ||
					got.PhysicalQubits != base.PhysicalQubits {
					t.Errorf("%s/%v on %s: metrics diverge from baseline", w.Name, p, name)
				}
			}
		}
	}
}

// TestDefectiveDeviceSchedulesReplay compiles on random-yield devices
// and replay-validates the recorded schedules: every committed path
// must respect dependencies and never double-book (or cross a masked)
// resource on the defective floorplan.
func TestDefectiveDeviceSchedulesReplay(t *testing.T) {
	c := apps.GSE(apps.GSEConfig{M: 10, Steps: 2})
	for seed := int64(1); seed <= 5; seed++ {
		dev := device.RandomYield(0.06, seed)
		r, err := SimulateContext(context.Background(), c, Policy6, Config{Distance: 5, RecordSchedule: true, Device: dev})
		if err != nil {
			if errors.Is(err, scerr.ErrUnroutable) {
				continue
			}
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r.Arch.Topo == nil {
			t.Fatalf("seed %d: defective compile lost its topology", seed)
		}
		if err := Replay(c, r.Arch, r.Schedule); err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}
		// No committed path may touch a masked resource.
		for _, e := range r.Schedule {
			for i, n := range e.Path {
				if r.Arch.Topo.TileDead(n) {
					t.Fatalf("seed %d: op %d path enters dead junction %v", seed, e.Op, n)
				}
				if i > 0 && r.Arch.Topo.LinkDisabled(e.Path[i-1], n) {
					t.Fatalf("seed %d: op %d path crosses disabled link", seed, e.Op)
				}
			}
		}
	}
}

// TestWeightedLinksStretchPhases pins the weighted-timing rule: a
// uniform 2× link weight doubles (±1 toggle cycle) every braid phase,
// so the schedule is strictly longer than on the unweighted device.
func TestWeightedLinksStretchPhases(t *testing.T) {
	c := apps.GSE(apps.GSEConfig{M: 10, Steps: 2})
	slow := device.Custom("slow-links", 1, func(topo *device.Topology, _ *rand.Rand) {
		for r := 0; r < topo.Rows(); r++ {
			for cc := 0; cc < topo.Cols(); cc++ {
				cur := device.Coord{Row: r, Col: cc}
				topo.SetLinkWeight(cur, device.Coord{Row: r, Col: cc + 1}, 2)
				topo.SetLinkWeight(cur, device.Coord{Row: r + 1, Col: cc}, 2)
			}
		}
	})
	base, err := SimulateContext(context.Background(), c, Policy6, Config{Distance: 5})
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := SimulateContext(context.Background(), c, Policy6, Config{Distance: 5, Device: slow})
	if err != nil {
		t.Fatal(err)
	}
	if weighted.ScheduleCycles <= base.ScheduleCycles {
		t.Fatalf("2x links did not stretch the schedule: %d <= %d",
			weighted.ScheduleCycles, base.ScheduleCycles)
	}
}

// TestDisconnectedDeviceUnroutable asserts a fabric with every channel
// disabled fails fast with ErrUnroutable — no hang, no panic.
func TestDisconnectedDeviceUnroutable(t *testing.T) {
	c := apps.GSE(apps.GSEConfig{M: 10, Steps: 2})
	dev := device.Custom("no-links", 0, func(topo *device.Topology, _ *rand.Rand) {
		for r := 0; r < topo.Rows(); r++ {
			for cc := 0; cc < topo.Cols(); cc++ {
				cur := device.Coord{Row: r, Col: cc}
				topo.DisableLink(cur, device.Coord{Row: r, Col: cc + 1})
				topo.DisableLink(cur, device.Coord{Row: r + 1, Col: cc})
			}
		}
	})
	_, err := SimulateContext(context.Background(), c, Policy6, Config{Distance: 5, Device: dev})
	if !errors.Is(err, scerr.ErrUnroutable) {
		t.Fatalf("err = %v, want ErrUnroutable", err)
	}
}

// TestDeadFactoriesUnroutable kills every factory column: magic-state
// traffic must fail with ErrUnroutable (and succeed with LocalTOps).
func TestDeadFactoriesUnroutable(t *testing.T) {
	c := apps.GSE(apps.GSEConfig{M: 10, Steps: 2})
	dev := device.Custom("dead-factories", 0, func(topo *device.Topology, _ *rand.Rand) {
		// Factory columns sit at physical columns pitch, 2*pitch+1, …;
		// kill every junction in those columns.
		for col := factoryColumnPitch; col < topo.Cols(); col += factoryColumnPitch + 1 {
			for r := 0; r < topo.Rows(); r++ {
				topo.DisableTile(device.Coord{Row: r, Col: col})
			}
		}
		// The rightmost physical column can also host clamped ports.
		for r := 0; r < topo.Rows(); r++ {
			topo.DisableTile(device.Coord{Row: r, Col: topo.Cols() - 2})
		}
	})
	_, err := SimulateContext(context.Background(), c, Policy6, Config{Distance: 5, Device: dev})
	if !errors.Is(err, scerr.ErrUnroutable) {
		t.Fatalf("err = %v, want ErrUnroutable", err)
	}
	if _, err := SimulateContext(context.Background(), c, Policy6, Config{Distance: 5, Device: dev, LocalTOps: true}); err != nil {
		t.Fatalf("LocalTOps ablation should not need factories: %v", err)
	}
}

// TestCliffordOnlyIgnoresDeadFactories asserts a circuit with no magic
// traffic compiles even when every factory port is dead — dead ports
// only matter for ops that need them.
func TestCliffordOnlyIgnoresDeadFactories(t *testing.T) {
	c := circuitNoT(t)
	dev := device.Custom("dead-factories", 0, func(topo *device.Topology, _ *rand.Rand) {
		for col := factoryColumnPitch; col < topo.Cols(); col += factoryColumnPitch + 1 {
			for r := 0; r < topo.Rows(); r++ {
				topo.DisableTile(device.Coord{Row: r, Col: col})
			}
		}
		for r := 0; r < topo.Rows(); r++ {
			topo.DisableTile(device.Coord{Row: r, Col: topo.Cols() - 2})
		}
	})
	r, err := SimulateContext(context.Background(), c, Policy6, Config{Distance: 5, Device: dev})
	if err != nil {
		t.Fatalf("Clifford-only circuit should not need factories: %v", err)
	}
	if r.ScheduleCycles <= 0 {
		t.Fatal("empty schedule")
	}
}

// circuitNoT builds a magic-free (Clifford-only) CNOT chain.
func circuitNoT(t *testing.T) *circuit.Circuit {
	t.Helper()
	c := circuit.New("cnot-chain", 10)
	for q := 0; q+1 < 10; q++ {
		c.Append(circuit.CNOT, q, q+1)
	}
	return c
}

// TestYieldGrowthFindsRoom asserts the data grid grows until enough
// usable tiles exist: a heavy-but-connected defect map still compiles.
func TestYieldGrowthFindsRoom(t *testing.T) {
	c := apps.GSE(apps.GSEConfig{M: 10, Steps: 2})
	// Kill the whole top row of any instance: the grid must grow.
	dev := device.Custom("top-row-dead", 0, func(topo *device.Topology, _ *rand.Rand) {
		for cc := 0; cc < topo.Cols(); cc++ {
			topo.DisableTile(device.Coord{Row: 0, Col: cc})
		}
	})
	r, err := SimulateContext(context.Background(), c, Policy6, Config{Distance: 5, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	if r.ScheduleCycles <= 0 {
		t.Fatal("empty schedule")
	}
}
