// Package layout assigns logical qubits to tiles of a 2-D grid — the
// mapping-level optimization of paper §6.2. The optimized placement
// recursively bisects the qubit interaction graph (via the partition
// package) while splitting the grid region in half, so strongly
// interacting qubits land in the same subregion and braid routes stay
// short. The naive row-major placement is retained as the baseline the
// paper compares against.
//
// Both placements run against a device.View: which tiles are usable and
// the device-aware distance between them. The perfect grid is the
// all-alive view of the near-square grid (RowMajor, Optimized); a
// defective or calibrated device passes its own view (RowMajorOn,
// OptimizedOn). A view changes only what the placement observes: dead
// tiles hold no qubit, distances detour around them, and calibrated
// error rates add a penalty to the objective.
package layout

import (
	"fmt"
	"math"

	"surfcomm/internal/device"
	"surfcomm/internal/partition"
	"surfcomm/internal/scerr"
)

// Coord is a tile position on the grid (row-major). It is the shared
// grid coordinate of the device layer, so tiles, mesh junctions, and
// teleport regions interconvert without copying.
type Coord = device.Coord

// Placement maps logical qubits to distinct grid coordinates.
type Placement struct {
	Rows, Cols int
	Pos        []Coord
}

// GridFor returns the smallest near-square grid that fits n tiles.
func GridFor(n int) (rows, cols int) {
	if n <= 0 {
		return 0, 0
	}
	cols = int(math.Ceil(math.Sqrt(float64(n))))
	rows = (n + cols - 1) / cols
	return rows, cols
}

// perfectView is the perfect device's placement view for n qubits: the
// near-square grid with every tile alive.
func perfectView(n int) *device.View {
	rows, cols := GridFor(n)
	return device.NewView(rows, cols, func(Coord) bool { return true })
}

// RowMajor places qubit i at (i/cols, i%cols) of the near-square grid:
// the unoptimized baseline.
func RowMajor(n int) *Placement {
	p, _ := RowMajorOn(n, perfectView(n)) // the near-square grid fits n
	return p
}

// Optimized is OptimizedOn on the near-square grid of a perfect device.
func Optimized(g *partition.Graph, seed int64) (*Placement, error) {
	return OptimizedOn(g, seed, perfectView(g.NumVertices()))
}

// Validate checks that every qubit has an in-bounds, distinct tile.
func (p *Placement) Validate() error {
	seen := make(map[Coord]int, len(p.Pos))
	for q, c := range p.Pos {
		if c.Row < 0 || c.Row >= p.Rows || c.Col < 0 || c.Col >= p.Cols {
			return fmt.Errorf("layout: qubit %d at %v outside %dx%d grid", q, c, p.Rows, p.Cols)
		}
		if prev, dup := seen[c]; dup {
			return fmt.Errorf("layout: qubits %d and %d share tile %v", prev, q, c)
		}
		seen[c] = q
	}
	return nil
}

// ValidateOn checks Validate plus that no qubit sits on a dead tile.
func (p *Placement) ValidateOn(v *device.View) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for q, c := range p.Pos {
		if !v.Alive(c) {
			return fmt.Errorf("layout: qubit %d placed on dead tile %v", q, c)
		}
	}
	return nil
}

// RowMajorOn places qubit i at the i-th usable tile of the view in
// row-major order. It fails with an error matching scerr.ErrUnroutable
// when the view has fewer usable tiles than qubits.
func RowMajorOn(n int, v *device.View) (*Placement, error) {
	if v.AliveCount() < n {
		return nil, scerr.Unroutable("layout: %d qubits need %d usable tiles, device has %d",
			n, n, v.AliveCount())
	}
	p := &Placement{Rows: v.Rows(), Cols: v.Cols(), Pos: make([]Coord, n)}
	copy(p.Pos, region{rows: v.Rows(), cols: v.Cols()}.cells(v))
	return p, nil
}

// errorPenaltyWeight converts a placement's summed per-tile calibrated
// error rate into distance units for the optimizer objective: a tile
// that is 1% worse than its neighbors costs one braid hop. Large enough
// to steer qubits off noisy tiles, small enough that distance still
// dominates.
const errorPenaltyWeight = 100

// placementCost is the objective the optimizer minimizes: Σ
// weight(a,b)·distance(a,b) over all interaction edges under the view's
// device-aware distances, plus the summed calibrated error rates of the
// occupied tiles. On an uncalibrated view the penalty is 0 and the
// comparison is exactly the integer distance objective.
func placementCost(g *partition.Graph, p *Placement, v *device.View) float64 {
	dist := 0
	for a := 0; a < g.NumVertices(); a++ {
		for _, b := range g.Neighbors(a) {
			if a < b {
				dist += g.EdgeWeight(a, b) * v.Distance(p.Pos[a], p.Pos[b])
			}
		}
	}
	penalty := 0.0
	for _, c := range p.Pos {
		penalty += v.ErrorRate(c)
	}
	return float64(dist) + errorPenaltyWeight*penalty
}

// OptimizedOn places the interaction graph's vertices on the view's
// usable tiles by recursive bisection: the grid region and the vertex
// set are halved together, cutting as little interaction weight as
// possible at each split. Several bisection seeds are tried and the
// row-major placement is kept as a candidate, so the optimizer never
// returns a placement worse than naive under placementCost (chain-like
// interaction graphs are already near-optimal under row-major).
func OptimizedOn(g *partition.Graph, seed int64, v *device.View) (*Placement, error) {
	n := g.NumVertices()
	best, err := RowMajorOn(n, v)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return best, nil
	}
	bestCost := placementCost(g, best, v)
	for trial := 0; trial < 3; trial++ {
		p, err := bisectionPlacement(g, seed+int64(trial)*101, v)
		if err != nil {
			return nil, err
		}
		if cost := placementCost(g, p, v); cost < bestCost {
			best, bestCost = p, cost
		}
	}
	return best, nil
}

// bisectionPlacement runs one recursive-bisection pass over the usable
// tiles of the view.
func bisectionPlacement(g *partition.Graph, seed int64, v *device.View) (*Placement, error) {
	n := g.NumVertices()
	p := &Placement{Rows: v.Rows(), Cols: v.Cols(), Pos: make([]Coord, n)}
	vertices := make([]int, n)
	for i := range vertices {
		vertices[i] = i
	}
	r := region{rows: v.Rows(), cols: v.Cols()}
	if err := placeRecursive(g, vertices, r, p, seed, v); err != nil {
		return nil, err
	}
	if err := p.ValidateOn(v); err != nil {
		return nil, fmt.Errorf("layout: internal error: %w", err)
	}
	return p, nil
}

// region is a rectangular grid window.
type region struct {
	row, col   int
	rows, cols int
}

// split halves the region along its longer dimension, returning the two
// subwindows (first gets the ceiling half).
func (r region) split() (region, region) {
	if r.cols >= r.rows {
		left := (r.cols + 1) / 2
		return region{r.row, r.col, r.rows, left},
			region{r.row, r.col + left, r.rows, r.cols - left}
	}
	top := (r.rows + 1) / 2
	return region{r.row, r.col, top, r.cols},
		region{r.row + top, r.col, r.rows - top, r.cols}
}

// capacity counts the region's usable tiles.
func (r region) capacity(v *device.View) int {
	n := 0
	for i := 0; i < r.rows; i++ {
		for j := 0; j < r.cols; j++ {
			if v.Alive(Coord{Row: r.row + i, Col: r.col + j}) {
				n++
			}
		}
	}
	return n
}

// cells lists the region's usable tiles row-major.
func (r region) cells(v *device.View) []Coord {
	out := make([]Coord, 0, r.rows*r.cols)
	for i := 0; i < r.rows; i++ {
		for j := 0; j < r.cols; j++ {
			if c := (Coord{Row: r.row + i, Col: r.col + j}); v.Alive(c) {
				out = append(out, c)
			}
		}
	}
	return out
}

// placeRecursive halves the vertex set with partition.Bisect and the
// region with split, fits each half to its subregion's usable-tile
// capacity, and recurses until a part fits its region's cells directly.
func placeRecursive(g *partition.Graph, vertices []int, r region, p *Placement, seed int64, v *device.View) error {
	capacity := r.capacity(v)
	if len(vertices) > capacity {
		return fmt.Errorf("layout: %d vertices exceed usable region capacity %d", len(vertices), capacity)
	}
	if len(vertices) == 0 {
		return nil
	}
	if len(vertices) <= 2 || capacity <= 2 {
		cells := r.cells(v)
		for i, vtx := range vertices {
			p.Pos[vtx] = cells[i]
		}
		return nil
	}
	rA, rB := r.split()
	sub, mapping, err := g.InducedSubgraph(vertices)
	if err != nil {
		return err
	}
	side, _ := partition.Bisect(sub, partition.Options{Seed: seed})

	// Fit the two parts to the subregion capacities: the bisection is
	// balanced within tolerance, but regions have hard capacities, so
	// surplus vertices migrate by best move gain.
	fitSides(sub, side, rA.capacity(v), rB.capacity(v))

	zero, one := partition.SideVertices(side)
	partA := make([]int, len(zero))
	for i, vtx := range zero {
		partA[i] = mapping[vtx]
	}
	partB := make([]int, len(one))
	for i, vtx := range one {
		partB[i] = mapping[vtx]
	}
	if err := placeRecursive(g, partA, rA, p, seed+1, v); err != nil {
		return err
	}
	return placeRecursive(g, partB, rB, p, seed+2, v)
}

// fitSides enforces |side 0| ≤ capA and |side 1| ≤ capB by moving the
// least-attached vertices off the oversubscribed side.
func fitSides(g *partition.Graph, side []int, capA, capB int) {
	counts := [2]int{}
	for _, s := range side {
		counts[s]++
	}
	caps := [2]int{capA, capB}
	for from := 0; from < 2; from++ {
		to := 1 - from
		for counts[from] > caps[from] {
			best, bestGain := -1, 0
			for v, s := range side {
				if s != from {
					continue
				}
				gain := 0
				for _, u := range g.Neighbors(v) {
					w := g.EdgeWeight(v, u)
					if side[u] == from {
						gain -= w
					} else {
						gain += w
					}
				}
				if best < 0 || gain > bestGain {
					best, bestGain = v, gain
				}
			}
			side[best] = to
			counts[from]--
			counts[to]++
		}
	}
}
