package device

import (
	"math/rand"
	"testing"
)

// TestPerfectRealization pins the perfect-device contract: nil and
// Perfect devices realize all-alive, unit-weight, uncalibrated
// topologies at any dims.
func TestPerfectRealization(t *testing.T) {
	for _, d := range []*Device{nil, Perfect()} {
		if !d.IsPerfect() {
			t.Fatalf("%v not perfect", d)
		}
		if d.String() != "perfect" {
			t.Fatalf("String() = %q", d.String())
		}
		topo := d.Instance(5, 7)
		if topo.DeadTiles() != 0 || topo.DisabledLinks() != 0 || topo.Calibrated() {
			t.Fatalf("perfect instance degraded: %+v", topo)
		}
		if topo.MaxLinkWeight() != 1 {
			t.Fatalf("perfect max weight %v", topo.MaxLinkWeight())
		}
	}
}

// TestInstanceDeterministic asserts the device contract: the same
// (spec, dims) always realizes the same topology, independent of call
// order or prior instantiations at other dims.
func TestInstanceDeterministic(t *testing.T) {
	for _, dev := range []*Device{
		RandomYield(0.1, 42),
		ClusteredDefects(0.15, 7),
	} {
		a := dev.Instance(9, 11)
		_ = dev.Instance(4, 4) // interleaved other-dims realization
		b := dev.Instance(9, 11)
		if a.DeadTiles() != b.DeadTiles() || a.DisabledLinks() != b.DisabledLinks() {
			t.Fatalf("%v: realizations differ: %d/%d dead, %d/%d disabled",
				dev, a.DeadTiles(), b.DeadTiles(), a.DisabledLinks(), b.DisabledLinks())
		}
		for r := 0; r < 9; r++ {
			for c := 0; c < 11; c++ {
				cc := Coord{Row: r, Col: c}
				if a.TileDead(cc) != b.TileDead(cc) {
					t.Fatalf("%v: tile %v dead-ness differs", dev, cc)
				}
				for _, nb := range []Coord{{Row: r, Col: c + 1}, {Row: r + 1, Col: c}} {
					if !a.InBounds(nb) {
						continue
					}
					if a.LinkDisabled(cc, nb) != b.LinkDisabled(cc, nb) ||
						a.LinkWeight(cc, nb) != b.LinkWeight(cc, nb) {
						t.Fatalf("%v: link %v-%v differs", dev, cc, nb)
					}
				}
			}
		}
	}
}

// TestDeadTileDisablesLinks asserts a dead tile's incident links are
// unusable.
func TestDeadTileDisablesLinks(t *testing.T) {
	topo := NewTopology(3, 3)
	topo.DisableTile(Coord{Row: 1, Col: 1})
	for _, nb := range []Coord{{Row: 1, Col: 0}, {Row: 1, Col: 2}, {Row: 0, Col: 1}, {Row: 2, Col: 1}} {
		if !topo.LinkDisabled(Coord{Row: 1, Col: 1}, nb) {
			t.Fatalf("link to %v still enabled", nb)
		}
	}
	if topo.DeadTiles() != 1 || topo.DisabledLinks() != 4 {
		t.Fatalf("counts: %d dead, %d disabled", topo.DeadTiles(), topo.DisabledLinks())
	}
}

// TestComponents labels a split fabric correctly: a wall of disabled
// links separates the grid into two components.
func TestComponents(t *testing.T) {
	topo := NewTopology(3, 4)
	for r := 0; r < 3; r++ {
		topo.DisableLink(Coord{Row: r, Col: 1}, Coord{Row: r, Col: 2})
	}
	comps := topo.Components()
	left := comps[0]
	right := comps[2]
	if left == right {
		t.Fatalf("wall did not split the fabric: %v", comps)
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			want := left
			if c >= 2 {
				want = right
			}
			if comps[r*4+c] != want {
				t.Fatalf("cell (%d,%d) labeled %d, want %d", r, c, comps[r*4+c], want)
			}
		}
	}
}

// TestViewDistances checks device-aware distances: Manhattan on a full
// grid, detours around dead tiles, Unreachable across cuts.
func TestViewDistances(t *testing.T) {
	full := NewView(4, 4, func(Coord) bool { return true })
	if d := full.Distance(Coord{Row: 0, Col: 0}, Coord{Row: 3, Col: 3}); d != 6 {
		t.Fatalf("full-grid distance %d, want Manhattan 6", d)
	}
	// Kill the middle of row 1: paths from (0,1) to (2,1) must detour.
	wall := NewView(3, 3, func(c Coord) bool { return c != Coord{Row: 1, Col: 1} })
	if d := wall.Distance(Coord{Row: 0, Col: 1}, Coord{Row: 2, Col: 1}); d != 4 {
		t.Fatalf("detour distance %d, want 4", d)
	}
	// An isolated cell is unreachable.
	island := NewView(1, 3, func(c Coord) bool { return c.Col != 1 })
	if d := island.Distance(Coord{Row: 0, Col: 0}, Coord{Row: 0, Col: 2}); d != Unreachable {
		t.Fatalf("cut distance %d, want Unreachable", d)
	}
}

// TestCustomDevice checks the builder hook runs at instance dims with
// the seeded RNG.
func TestCustomDevice(t *testing.T) {
	dev := Custom("test-map", 3, func(topo *Topology, rng *rand.Rand) {
		topo.DisableTile(Coord{Row: 0, Col: rng.Intn(topo.Cols())})
	})
	if dev.IsPerfect() {
		t.Fatal("custom device reported perfect")
	}
	a, b := dev.Instance(2, 5), dev.Instance(2, 5)
	if a.DeadTiles() != 1 || b.DeadTiles() != 1 {
		t.Fatalf("dead tiles %d/%d, want 1", a.DeadTiles(), b.DeadTiles())
	}
	for c := 0; c < 5; c++ {
		cc := Coord{Row: 0, Col: c}
		if a.TileDead(cc) != b.TileDead(cc) {
			t.Fatal("custom realization not deterministic")
		}
	}
}
