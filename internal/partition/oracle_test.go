package partition

import (
	"testing"

	"surfcomm/internal/apps"
	"surfcomm/internal/circuit"
)

// exactBisection is the brute-force oracle for Bisect: the minimum cut
// over every side assignment that Balanced(side, tolerance) accepts.
// Vertex 0 stays on side 0 (the mirror assignment has the same cut), so
// a 16-node graph costs 2^15 assignments.
func exactBisection(g *Graph, tolerance float64) int {
	n := g.NumVertices()
	type edge struct{ u, v, w int }
	var edges []edge
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				edges = append(edges, edge{u, v, g.EdgeWeight(u, v)})
			}
		}
	}
	side := make([]int, n)
	best := -1
	for mask := 0; mask < 1<<(n-1); mask++ {
		for v := 1; v < n; v++ {
			side[v] = mask >> (v - 1) & 1
		}
		if !Balanced(side, tolerance) {
			continue
		}
		cut := 0
		for _, e := range edges {
			if side[e.u] != side[e.v] {
				cut += e.w
			}
		}
		if best < 0 || cut < best {
			best = cut
		}
	}
	return best
}

// appGraph is a circuit's two-qubit interaction graph, one unit of
// weight per two-qubit gate.
func appGraph(c *circuit.Circuit) *Graph {
	g := NewGraph(c.NumQubits)
	for _, gt := range c.Gates {
		if gt.Op.IsTwoQubit() {
			_ = g.AddEdge(gt.Qubits[0], gt.Qubits[1], 1)
		}
	}
	return g
}

// TestBisectAgainstExactOracle runs Bisect (seed 1, default tolerance)
// on graphs of up to 16 nodes and compares its cut with the exact
// minimum bisection. Bisect must return a balanced side whose cut it
// reports truthfully and never beats the oracle; the table pins both
// cuts, so the gap Bisect leaves on each graph is recorded here.
func TestBisectAgainstExactOracle(t *testing.T) {
	cases := []struct {
		name          string
		g             *Graph
		cut, exactCut int
	}{
		{"random-8x12", randomGraph(8, 12, 1), 9, 9},                                    // gap 0
		{"random-8x24", randomGraph(8, 24, 2), 24, 18},                                  // gap 6
		{"random-10x15", randomGraph(10, 15, 3), 13, 11},                                // gap 2
		{"random-10x30", randomGraph(10, 30, 4), 30, 20},                                // gap 10
		{"random-12x18", randomGraph(12, 18, 5), 31, 16},                                // gap 15
		{"random-12x36", randomGraph(12, 36, 6), 19, 19},                                // gap 0
		{"random-13x20", randomGraph(13, 20, 7), 8, 8},                                  // gap 0
		{"random-14x21", randomGraph(14, 21, 8), 1, 1},                                  // gap 0
		{"random-14x42", randomGraph(14, 42, 9), 30, 30},                                // gap 0
		{"random-15x30", randomGraph(15, 30, 10), 22, 22},                               // gap 0
		{"random-16x24", randomGraph(16, 24, 11), 10, 10},                               // gap 0
		{"random-16x48", randomGraph(16, 48, 12), 32, 32},                               // gap 0
		{"random-16x80", randomGraph(16, 80, 13), 67, 67},                               // gap 0
		{"GSE-m10", appGraph(apps.GSE(apps.GSEConfig{M: 10, Steps: 2})), 40, 40},        // gap 0
		{"GSE-m15", appGraph(apps.GSE(apps.GSEConfig{M: 15, Steps: 1})), 28, 28},        // gap 0
		{"SQ-n4", appGraph(apps.SQ(apps.SQConfig{N: 4, Iters: 1})), 16, 16},             // gap 0
		{"IM-n15", appGraph(apps.Ising(apps.IsingConfig{N: 15, Steps: 1}, true)), 4, 4}, // gap 0
	}
	for _, c := range cases {
		side, cut := Bisect(c.g, Options{Seed: 1})
		if !Balanced(side, 0.08) {
			t.Errorf("%s: Bisect returned an unbalanced side %v", c.name, side)
		}
		if got := c.g.CutWeight(side); got != cut {
			t.Errorf("%s: Bisect reports cut %d, its side cuts %d", c.name, cut, got)
		}
		exact := exactBisection(c.g, 0.08)
		if cut < exact {
			t.Errorf("%s: Bisect cut %d beats the exact minimum %d", c.name, cut, exact)
		}
		if cut != c.cut || exact != c.exactCut {
			t.Errorf("%s: cut %d, exact %d (gap %d); pinned cut %d, exact %d",
				c.name, cut, exact, cut-exact, c.cut, c.exactCut)
		}
	}
}
