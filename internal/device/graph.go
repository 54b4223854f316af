// Coupling graphs: which junctions and couplers of the fabric exist.
//
// The square mesh every simulator in this repo was built on is one
// member of a family — real superconducting chips ship restricted
// coupling maps, most prominently the heavy-hexagon lattice (Wu et al.,
// "Mapping Surface Code to Superconducting Quantum Processors", arXiv
// 2111.13729). A CouplingGraph is a *pattern* over the grid embedding:
// a presence predicate for nodes and edges, evaluable at any realized
// dims (the braid, teleport, and layout layers each instantiate the
// device at dims of their own choosing). Realization subtracts the
// absent resources from a Topology, so every downstream consumer — mesh
// masking, the BFS route fallback, connected-component prechecks,
// placement views — works unchanged, and the complete square graph
// realizes an all-alive topology: the perfect device.
package device

import (
	"encoding/json"
	"fmt"
	"io"

	"surfcomm/internal/scerr"
)

// Graph preset names.
const (
	GraphSquare   = "square"
	GraphHeavyHex = "heavy-hex"
)

// CouplingGraph is a coupling-map pattern: presence predicates for the
// junctions (nodes) and couplers (edges) of a rows×cols grid, evaluable
// at arbitrary realized dims.
type CouplingGraph struct {
	name string
	// node/edge report presence at the realized dims. nil means "all
	// present".
	node func(rows, cols int, c Coord) bool
	edge func(rows, cols int, a, b Coord) bool
}

// Name returns the graph's preset (or loaded) name.
func (g *CouplingGraph) Name() string { return g.name }

// HasNode reports whether the junction exists at the realized dims.
func (g *CouplingGraph) HasNode(rows, cols int, c Coord) bool {
	if g.node == nil {
		return true
	}
	return g.node(rows, cols, c)
}

// HasEdge reports whether the coupler between two adjacent junctions
// exists at the realized dims. Edges incident to absent nodes never
// exist.
func (g *CouplingGraph) HasEdge(rows, cols int, a, b Coord) bool {
	if !g.HasNode(rows, cols, a) || !g.HasNode(rows, cols, b) {
		return false
	}
	if g.edge == nil {
		return true
	}
	return g.edge(rows, cols, a, b)
}

// Apply subtracts the pattern's absent resources from a realized
// topology: absent nodes become dead cells, absent edges disabled
// links. The complete square graph applies nothing, leaving the
// topology all-alive.
func (g *CouplingGraph) Apply(t *Topology) {
	rows, cols := t.Rows(), t.Cols()
	if g.node != nil {
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if p := (Coord{Row: r, Col: c}); !g.node(rows, cols, p) {
					t.DisableTile(p)
				}
			}
		}
	}
	if g.edge != nil {
		t.eachLink(func(a, b Coord) {
			if !g.HasEdge(rows, cols, a, b) {
				t.DisableLink(a, b)
			}
		})
	}
}

// SquareGraph returns the complete square mesh — the pattern the rest
// of the toolchain was built on. Realizing it is a no-op: a device on
// it is the perfect device.
func SquareGraph() *CouplingGraph {
	return &CouplingGraph{name: GraphSquare}
}

// heavyHexRungPitch spaces the vertical "rung" couplers of the
// heavy-hex pattern along each row pair.
const heavyHexRungPitch = 4

// HeavyHexGraph returns the heavy-hexagon coupling pattern: every
// junction and every horizontal coupler exists, but vertical couplers
// survive only at rung columns — column ≡ 0 (mod 4) below even rows,
// column ≡ 2 (mod 4) below odd rows — giving the degree-≤3 brick
// lattice of IBM's heavy-hex chips. Each row stays connected
// horizontally and every adjacent row pair keeps at least one rung, so
// the pattern is connected at any dims; grids narrower than 3 columns
// keep all vertical couplers (too narrow to thin without disconnecting).
func HeavyHexGraph() *CouplingGraph {
	return &CouplingGraph{
		name: GraphHeavyHex,
		edge: func(rows, cols int, a, b Coord) bool {
			if a.Row == b.Row || cols < 3 {
				return true
			}
			top := min(a.Row, b.Row)
			offset := 0
			if top%2 == 1 {
				offset = 2
			}
			return a.Col%heavyHexRungPitch == offset
		},
	}
}

// graphSpec is the on-disk custom coupling-graph format: an explicit
// unit cell of couplers, tiled across whatever grid the toolchain
// realizes. Couplers interior to a cell copy follow the spec; the
// boundary couplers stitching adjacent copies together are always
// present (the cells tile a larger chip).
type graphSpec struct {
	Version  int           `json:"version"`
	Name     string        `json:"name"`
	Rows     int           `json:"rows"`
	Cols     int           `json:"cols"`
	Couplers []couplerSpec `json:"couplers"`
}

type couplerSpec struct {
	A [2]int `json:"a"` // [row, col]
	B [2]int `json:"b"`
}

// GraphVersion is the supported custom coupling-graph format version.
const GraphVersion = 1

// ParseCouplingGraph loads a custom coupling graph from its versioned
// JSON spec. Malformed specs — wrong version, out-of-bounds or
// non-adjacent couplers, empty cells — fail with an error matching
// scerr.ErrBadConfig.
func ParseCouplingGraph(data []byte) (*CouplingGraph, error) {
	var spec graphSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, scerr.BadConfig("device: coupling graph: %v", err)
	}
	if spec.Version != GraphVersion {
		return nil, scerr.BadConfig("device: coupling graph: unsupported version %d (want %d)", spec.Version, GraphVersion)
	}
	if spec.Name == "" {
		return nil, scerr.BadConfig("device: coupling graph: missing name")
	}
	if spec.Rows < 1 || spec.Cols < 1 {
		return nil, scerr.BadConfig("device: coupling graph: invalid cell dims %dx%d", spec.Rows, spec.Cols)
	}
	if len(spec.Couplers) == 0 {
		return nil, scerr.BadConfig("device: coupling graph: no couplers")
	}
	edges := make(map[[2]Coord]bool, len(spec.Couplers))
	for i, cp := range spec.Couplers {
		a := Coord{Row: cp.A[0], Col: cp.A[1]}
		b := Coord{Row: cp.B[0], Col: cp.B[1]}
		if a.Row < 0 || a.Row >= spec.Rows || a.Col < 0 || a.Col >= spec.Cols ||
			b.Row < 0 || b.Row >= spec.Rows || b.Col < 0 || b.Col >= spec.Cols {
			return nil, scerr.BadConfig("device: coupling graph: coupler %d endpoints %v-%v outside %dx%d cell",
				i, a, b, spec.Rows, spec.Cols)
		}
		if !Adjacent(a, b) {
			return nil, scerr.BadConfig("device: coupling graph: coupler %d endpoints %v-%v not adjacent", i, a, b)
		}
		if b.Row < a.Row || (b.Row == a.Row && b.Col < a.Col) {
			a, b = b, a
		}
		edges[[2]Coord{a, b}] = true
	}
	cellRows, cellCols := spec.Rows, spec.Cols
	return &CouplingGraph{
		name: spec.Name,
		edge: func(rows, cols int, a, b Coord) bool {
			// Couplers stitching adjacent cell copies are always present.
			if a.Row/cellRows != b.Row/cellRows || a.Col/cellCols != b.Col/cellCols {
				return true
			}
			am := Coord{Row: a.Row % cellRows, Col: a.Col % cellCols}
			bm := Coord{Row: b.Row % cellRows, Col: b.Col % cellCols}
			if bm.Row < am.Row || (bm.Row == am.Row && bm.Col < am.Col) {
				am, bm = bm, am
			}
			return edges[[2]Coord{am, bm}]
		},
	}, nil
}

// LoadCouplingGraph reads a custom coupling-graph spec from r.
func LoadCouplingGraph(r io.Reader) (*CouplingGraph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("device: coupling graph: %w", err)
	}
	return ParseCouplingGraph(data)
}
