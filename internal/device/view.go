package device

// View is the placement-facing projection of a device: which cells of a
// placement grid are usable and the device-aware distance between them.
// Every placement runs against one — the perfect grid is simply the
// view with every cell alive. Placement grids (logical data tiles) are
// coarser than the topology grids routing sees (mesh junctions with
// factory columns inserted), so a View is built from an alive predicate
// supplied by the consumer that owns the mapping. Distances are BFS hop
// counts over alive cells — dead tiles force detours, so strongly
// interacting qubits are steered away from defect clusters; link-level
// defects stay the router's concern. On a fully alive grid the distance
// is Manhattan.
type View struct {
	rows, cols int
	alive      []bool
	aliveCount int
	dist       []int32 // all-pairs hop distance, Unreachable across components

	// errRate is the optional per-cell calibrated error rate (nil when
	// the device is uncalibrated — every cell then reports 0 and the
	// placement objective reduces to pure distance).
	errRate func(Coord) float64
}

// Unreachable is the View distance between cells with no alive path.
// It is large enough to dominate any real placement objective while
// leaving Σ weight·distance far from integer overflow.
const Unreachable = 1 << 20

// NewView builds a rows×cols placement view from an alive predicate.
// The all-pairs distance table (one BFS per alive cell — placement
// grids are at most a few hundred cells) is computed lazily on the
// first Distance call that needs it, so aliveness-only consumers
// (row-major placement, dead-tile validation) and fully alive grids
// never pay for it.
func NewView(rows, cols int, alive func(Coord) bool) *View {
	v := &View{rows: rows, cols: cols, alive: make([]bool, rows*cols)}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if alive(Coord{Row: r, Col: c}) {
				v.alive[r*cols+c] = true
				v.aliveCount++
			}
		}
	}
	return v
}

// computeDistances fills the all-pairs table.
func (v *View) computeDistances() {
	rows, cols := v.rows, v.cols
	n := rows * cols
	v.dist = make([]int32, n*n)
	for i := range v.dist {
		v.dist[i] = Unreachable
	}
	queue := make([]int32, 0, n)
	for src := 0; src < n; src++ {
		if !v.alive[src] {
			continue
		}
		row := v.dist[src*n : (src+1)*n]
		row[src] = 0
		queue = append(queue[:0], int32(src))
		for head := 0; head < len(queue); head++ {
			ci := int(queue[head])
			cur := Coord{Row: ci / cols, Col: ci % cols}
			for _, nb := range [4]Coord{
				{Row: cur.Row, Col: cur.Col + 1}, {Row: cur.Row, Col: cur.Col - 1},
				{Row: cur.Row + 1, Col: cur.Col}, {Row: cur.Row - 1, Col: cur.Col},
			} {
				if nb.Row < 0 || nb.Row >= rows || nb.Col < 0 || nb.Col >= cols {
					continue
				}
				ni := nb.Row*cols + nb.Col
				if !v.alive[ni] || row[ni] != Unreachable {
					continue
				}
				row[ni] = row[ci] + 1
				queue = append(queue, int32(ni))
			}
		}
	}
}

// Rows returns the view's grid row count.
func (v *View) Rows() int { return v.rows }

// Cols returns the view's grid column count.
func (v *View) Cols() int { return v.cols }

// Alive reports whether the cell is usable for placement.
func (v *View) Alive(c Coord) bool {
	if c.Row < 0 || c.Row >= v.rows || c.Col < 0 || c.Col >= v.cols {
		return false
	}
	return v.alive[c.Row*v.cols+c.Col]
}

// AliveCount returns the number of usable cells.
func (v *View) AliveCount() int { return v.aliveCount }

// SetErrorRates attaches a per-cell calibrated error-rate function to
// the view (nil detaches). It returns the view for chaining.
func (v *View) SetErrorRates(fn func(Coord) float64) *View {
	v.errRate = fn
	return v
}

// Calibrated reports whether the view carries per-cell error rates.
func (v *View) Calibrated() bool { return v.errRate != nil }

// ErrorRate returns the cell's calibrated physical error rate (0 when
// the view is uncalibrated or the cell is out of bounds).
func (v *View) ErrorRate(c Coord) float64 {
	if v.errRate == nil || !v.Alive(c) {
		return 0
	}
	return v.errRate(c)
}

// Distance returns the device-aware hop distance between two cells
// (Unreachable when no alive path connects them). On a fully alive grid
// that is the Manhattan distance, returned directly; otherwise the
// all-pairs table is built on first use. A View is safe for one
// goroutine at a time.
func (v *View) Distance(a, b Coord) int {
	if !v.Alive(a) || !v.Alive(b) {
		return Unreachable
	}
	if v.aliveCount == len(v.alive) {
		return Manhattan(a, b)
	}
	if v.dist == nil {
		v.computeDistances()
	}
	n := v.rows * v.cols
	return int(v.dist[(a.Row*v.cols+a.Col)*n+b.Row*v.cols+b.Col])
}
