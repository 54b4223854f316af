package device

import (
	"errors"
	"testing"

	"surfcomm/internal/scerr"
)

// graphConnected BFS-checks that every present node is reachable from
// every other through present edges at the realized dims.
func graphConnected(g *CouplingGraph, rows, cols int) bool {
	var start Coord
	found := false
	for r := 0; r < rows && !found; r++ {
		for c := 0; c < cols && !found; c++ {
			if g.HasNode(rows, cols, Coord{Row: r, Col: c}) {
				start, found = Coord{Row: r, Col: c}, true
			}
		}
	}
	if !found {
		return false
	}
	seen := map[Coord]bool{start: true}
	queue := []Coord{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range []Coord{
			{Row: cur.Row, Col: cur.Col + 1}, {Row: cur.Row, Col: cur.Col - 1},
			{Row: cur.Row + 1, Col: cur.Col}, {Row: cur.Row - 1, Col: cur.Col},
		} {
			if nb.Row < 0 || nb.Row >= rows || nb.Col < 0 || nb.Col >= cols || seen[nb] {
				continue
			}
			if g.HasEdge(rows, cols, cur, nb) {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	total := 0
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if g.HasNode(rows, cols, Coord{Row: r, Col: c}) {
				total++
			}
		}
	}
	return len(seen) == total
}

// TestHeavyHexGraphProperties pins the lattice invariants across a
// spread of realized dims: connected, degree <= 3 where the pattern
// thins (cols >= 3), every horizontal coupler present, and rungs only
// at the pattern's columns.
func TestHeavyHexGraphProperties(t *testing.T) {
	g := HeavyHexGraph()
	for _, dims := range [][2]int{{1, 1}, {2, 2}, {2, 3}, {3, 2}, {5, 5}, {4, 9}, {9, 4}, {12, 17}} {
		rows, cols := dims[0], dims[1]
		if !graphConnected(g, rows, cols) {
			t.Fatalf("%dx%d: heavy-hex disconnected", rows, cols)
		}
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				cur := Coord{Row: r, Col: c}
				if c+1 < cols && !g.HasEdge(rows, cols, cur, Coord{Row: r, Col: c + 1}) {
					t.Fatalf("%dx%d: missing horizontal coupler at %v", rows, cols, cur)
				}
				deg := 0
				for _, nb := range []Coord{
					{Row: r, Col: c + 1}, {Row: r, Col: c - 1},
					{Row: r + 1, Col: c}, {Row: r - 1, Col: c},
				} {
					if nb.Row < 0 || nb.Row >= rows || nb.Col < 0 || nb.Col >= cols {
						continue
					}
					if g.HasEdge(rows, cols, cur, nb) {
						deg++
					}
				}
				if cols >= 3 && deg > 3 {
					t.Fatalf("%dx%d: node %v has degree %d > 3", rows, cols, cur, deg)
				}
			}
		}
	}
}

// TestSquareGraphIsComplete pins the square preset: every node and edge
// present, and realization leaves the topology all-alive, so the
// square-graph device realizes exactly like the perfect device.
func TestSquareGraphIsComplete(t *testing.T) {
	g := SquareGraph()
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			cur := Coord{Row: r, Col: c}
			if !g.HasNode(4, 4, cur) {
				t.Fatalf("square missing node %v", cur)
			}
			if c+1 < 4 && !g.HasEdge(4, 4, cur, Coord{Row: r, Col: c + 1}) {
				t.Fatalf("square missing edge at %v", cur)
			}
		}
	}
	topo := NewTopology(4, 4)
	g.Apply(topo)
	if topo.DeadTiles() != 0 || topo.DisabledLinks() != 0 {
		t.Fatal("square graph degraded the topology")
	}
}

// TestParseCouplingGraphTiling pins the custom loader: a 2x2 unit cell
// keeping only one vertical coupler tiles across larger dims, with
// cell-stitching couplers always present.
func TestParseCouplingGraphTiling(t *testing.T) {
	raw := `{"version":1,"name":"ladder","rows":2,"cols":2,"couplers":[
		{"a":[0,0],"b":[0,1]},
		{"a":[1,0],"b":[1,1]},
		{"a":[0,0],"b":[1,0]}]}`
	g, err := ParseCouplingGraph([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "ladder" {
		t.Fatalf("name %q", g.Name())
	}
	// Interior of each 2x2 copy: (0,0)-(1,0) kept, (0,1)-(1,1) dropped.
	if !g.HasEdge(4, 4, Coord{Row: 0, Col: 0}, Coord{Row: 1, Col: 0}) {
		t.Fatal("kept coupler missing")
	}
	if g.HasEdge(4, 4, Coord{Row: 0, Col: 1}, Coord{Row: 1, Col: 1}) {
		t.Fatal("dropped coupler present")
	}
	// Copy at rows 2..3 repeats the pattern.
	if !g.HasEdge(4, 4, Coord{Row: 2, Col: 0}, Coord{Row: 3, Col: 0}) {
		t.Fatal("tiled copy lost its coupler")
	}
	// The coupler stitching vertically adjacent copies is always present.
	if !g.HasEdge(4, 4, Coord{Row: 1, Col: 1}, Coord{Row: 2, Col: 1}) {
		t.Fatal("cell-stitching coupler missing")
	}
}

// TestParseCouplingGraphRejections walks the malformed-spec table.
func TestParseCouplingGraphRejections(t *testing.T) {
	cases := map[string]string{
		"not json":      `]`,
		"wrong version": `{"version":9,"name":"x","rows":2,"cols":2,"couplers":[{"a":[0,0],"b":[0,1]}]}`,
		"missing name":  `{"version":1,"rows":2,"cols":2,"couplers":[{"a":[0,0],"b":[0,1]}]}`,
		"bad dims":      `{"version":1,"name":"x","rows":0,"cols":2,"couplers":[{"a":[0,0],"b":[0,1]}]}`,
		"no couplers":   `{"version":1,"name":"x","rows":2,"cols":2,"couplers":[]}`,
		"out of cell":   `{"version":1,"name":"x","rows":2,"cols":2,"couplers":[{"a":[0,0],"b":[0,2]}]}`,
		"non-adjacent":  `{"version":1,"name":"x","rows":3,"cols":3,"couplers":[{"a":[0,0],"b":[2,0]}]}`,
	}
	for name, raw := range cases {
		if _, err := ParseCouplingGraph([]byte(raw)); !errors.Is(err, scerr.ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", name, err)
		}
	}
}

// TestHeavyHexDeviceInstance pins realization through the Device
// facade: absent couplers realize as disabled links (so meshes mask
// them), while the square-graph device realizes exactly like the
// perfect device.
func TestHeavyHexDeviceInstance(t *testing.T) {
	topo := HeavyHex(1).Instance(5, 5)
	if topo == nil {
		t.Fatal("heavy-hex realized no topology")
	}
	if topo.DisabledLinks() == 0 {
		t.Fatal("heavy-hex instance not degraded")
	}
	g := HeavyHexGraph()
	for r := 0; r+1 < 5; r++ {
		for c := 0; c < 5; c++ {
			a, b := Coord{Row: r, Col: c}, Coord{Row: r + 1, Col: c}
			if g.HasEdge(5, 5, a, b) == topo.LinkDisabled(a, b) {
				t.Fatalf("link %v-%v: graph says %v, topology says disabled=%v",
					a, b, g.HasEdge(5, 5, a, b), topo.LinkDisabled(a, b))
			}
		}
	}
	if got := OnGraph(SquareGraph(), 3); !got.IsPerfect() {
		t.Fatal("square-graph device should normalize to perfect")
	}
	if OnGraph(nil, 3) == nil || !OnGraph(nil, 3).IsPerfect() {
		t.Fatal("nil-graph device should normalize to perfect")
	}
}
