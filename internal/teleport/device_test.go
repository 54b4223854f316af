package teleport

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"surfcomm/internal/apps"
	"surfcomm/internal/device"
	"surfcomm/internal/scerr"
	"surfcomm/internal/simd"
)

func gseSchedule(t testing.TB) *simd.Schedule {
	t.Helper()
	c := apps.GSE(apps.GSEConfig{M: 10, Steps: 2})
	s, err := simd.RunContext(context.Background(), c, simd.ConfigFor(c.NumQubits, 1))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPerfectDeviceDistributionIdentical checks that a nil, a Perfect
// and a zero-defect device are one all-alive grid: their results agree
// field for field, across windows and on a reused Distributor whose
// routing tables are rebuilt for each device.
func TestPerfectDeviceDistributionIdentical(t *testing.T) {
	s := gseSchedule(t)
	windows := []int64{0, 32, 256, PrefetchAll}
	d := NewDistributor()
	for _, w := range windows {
		base, err := DistributeContext(context.Background(), s, w, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for name, dev := range map[string]*device.Device{
			"perfect":    device.Perfect(),
			"zero-yield": device.RandomYield(0, 9),
		} {
			got, err := d.DistributeContext(context.Background(), s, w, Config{Device: dev})
			if err != nil {
				t.Fatalf("%s window %d: %v", name, w, err)
			}
			if got != base {
				t.Fatalf("%s window %d: %+v != %+v", name, w, got, base)
			}
		}
	}
}

// TestDisabledLinkDetours disables a channel on the region grid: the
// distribution must still complete (halves reroute), and the detour can
// only delay arrivals — never accelerate the schedule.
func TestDisabledLinkDetours(t *testing.T) {
	s := gseSchedule(t)
	base, err := DistributeContext(context.Background(), s, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dev := device.Custom("one-dead-link", 0, func(topo *device.Topology, _ *rand.Rand) {
		// Cut the column-0 link on the factory row: halves leaving the
		// EPR factory toward column 0 must detour through another row.
		topo.DisableLink(
			device.Coord{Row: topo.Rows() - 1, Col: 0},
			device.Coord{Row: topo.Rows() - 1, Col: 1},
		)
	})
	got, err := DistributeContext(context.Background(), s, 0, Config{Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalPairs != base.TotalPairs {
		t.Fatalf("pairs %d != %d", got.TotalPairs, base.TotalPairs)
	}
	if got.ScheduleCycles < base.ScheduleCycles {
		t.Fatalf("detour accelerated the schedule: %d < %d", got.ScheduleCycles, base.ScheduleCycles)
	}
}

// TestWeightedLinksSlowHops doubles every link weight: at window 0
// (fully exposed distribution latency) the schedule must be strictly
// longer than on the ideal grid.
func TestWeightedLinksSlowHops(t *testing.T) {
	s := gseSchedule(t)
	base, err := DistributeContext(context.Background(), s, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dev := device.Custom("slow-fabric", 0, func(topo *device.Topology, _ *rand.Rand) {
		for r := 0; r < topo.Rows(); r++ {
			for c := 0; c < topo.Cols(); c++ {
				cur := device.Coord{Row: r, Col: c}
				topo.SetLinkWeight(cur, device.Coord{Row: r, Col: c + 1}, 2)
				topo.SetLinkWeight(cur, device.Coord{Row: r + 1, Col: c}, 2)
			}
		}
	})
	got, err := DistributeContext(context.Background(), s, 0, Config{Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	if got.StallCycles <= base.StallCycles {
		t.Fatalf("2x link weights did not slow distribution: stall %d <= %d",
			got.StallCycles, base.StallCycles)
	}
}

// TestDeadRegionUnroutable kills a region a move targets: the
// distribution must fail fast with ErrUnroutable.
func TestDeadRegionUnroutable(t *testing.T) {
	s := gseSchedule(t)
	dev := device.Custom("dead-region", 0, func(topo *device.Topology, _ *rand.Rand) {
		topo.DisableTile(device.Coord{Row: 0, Col: 0})
	})
	_, err := DistributeContext(context.Background(), s, 0, Config{Device: dev})
	if !errors.Is(err, scerr.ErrUnroutable) {
		t.Fatalf("err = %v, want ErrUnroutable", err)
	}
}

// TestDisconnectedFabricUnroutable cuts every link: no EPR half can
// leave the factory, and the run must fail with ErrUnroutable instead
// of hanging.
func TestDisconnectedFabricUnroutable(t *testing.T) {
	s := gseSchedule(t)
	dev := device.Custom("no-links", 0, func(topo *device.Topology, _ *rand.Rand) {
		for r := 0; r < topo.Rows(); r++ {
			for c := 0; c < topo.Cols(); c++ {
				cur := device.Coord{Row: r, Col: c}
				topo.DisableLink(cur, device.Coord{Row: r, Col: c + 1})
				topo.DisableLink(cur, device.Coord{Row: r + 1, Col: c})
			}
		}
	})
	_, err := DistributeContext(context.Background(), s, 0, Config{Device: dev})
	if !errors.Is(err, scerr.ErrUnroutable) {
		t.Fatalf("err = %v, want ErrUnroutable", err)
	}
}
