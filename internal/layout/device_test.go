package layout

import (
	"errors"
	"testing"

	"surfcomm/internal/device"
	"surfcomm/internal/partition"
	"surfcomm/internal/scerr"
)

// TestRowMajorOnSkipsDeadTiles places around a dead tile and refuses
// grids with too few usable tiles.
func TestRowMajorOnSkipsDeadTiles(t *testing.T) {
	v := device.NewView(2, 2, func(c Coord) bool { return c != Coord{Row: 0, Col: 1} })
	p, err := RowMajorOn(3, v)
	if err != nil {
		t.Fatal(err)
	}
	want := []Coord{{Row: 0, Col: 0}, {Row: 1, Col: 0}, {Row: 1, Col: 1}}
	for i, c := range p.Pos {
		if c != want[i] {
			t.Fatalf("qubit %d at %v, want %v", i, c, want[i])
		}
	}
	if err := p.ValidateOn(v); err != nil {
		t.Fatal(err)
	}
	if _, err := RowMajorOn(4, v); !errors.Is(err, scerr.ErrUnroutable) {
		t.Fatalf("over-capacity err = %v, want ErrUnroutable", err)
	}
}

// TestOptimizedOnAvoidsDeadTiles runs the device-aware optimizer on a
// grid with dead cells: the placement must validate, never land on a
// dead tile, and never be worse than the device-aware row-major
// baseline under device-aware distances.
func TestOptimizedOnAvoidsDeadTiles(t *testing.T) {
	g := partition.NewGraph(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}} {
		if err := g.AddEdge(e[0], e[1], 2); err != nil {
			t.Fatal(err)
		}
	}
	v := device.NewView(3, 3, func(c Coord) bool {
		return c != Coord{Row: 1, Col: 1} && c != Coord{Row: 0, Col: 2}
	})
	p, err := OptimizedOn(g, 1, v)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ValidateOn(v); err != nil {
		t.Fatal(err)
	}
	base, err := RowMajorOn(6, v)
	if err != nil {
		t.Fatal(err)
	}
	if placementCost(g, p, v) > placementCost(g, base, v) {
		t.Fatalf("optimized placement worse than baseline: %g > %g",
			placementCost(g, p, v), placementCost(g, base, v))
	}
}
