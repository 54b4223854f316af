// Package braid simulates computation and communication on the tiled
// double-defect architecture (paper §4.5, §6): every logical qubit owns
// one lattice tile, two-qubit operations are braids — circuit-switched
// path claims on the channel mesh between tiles — and T gates braid a
// magic state in from a factory port. The engine discovers a static
// schedule by dynamic simulation (paper §6.1) under the seven priority
// policies of §6.3 and reports the schedule-length-to-critical-path
// ratio and mesh utilization of Figure 6.
package braid

import (
	"fmt"

	"surfcomm/internal/device"
	"surfcomm/internal/layout"
	"surfcomm/internal/mesh"
	"surfcomm/internal/scerr"
	"surfcomm/internal/surface"
)

// factoryColumnPitch intersperses one factory column after every this
// many data columns — the paper's 1:4 ancilla-to-data balance (§4.3),
// with dedicated factories supplying the tiles around them (Fig. 3b).
const factoryColumnPitch = 4

// Arch is the floorplan of a tiled double-defect machine: data tiles
// hold the program's logical qubits at their optimized (or row-major)
// positions, and magic-state factory ports occupy dedicated columns
// interspersed through the fabric. Every tile attaches to the channel
// mesh at its top-left corner junction.
type Arch struct {
	TileRows, TileCols int
	DataTiles          int
	QubitTile          []layout.Coord // per logical qubit (physical grid coords)
	FactoryTiles       []layout.Coord // factory ports, one tile each
	// Topo is the realized device topology at junction-grid dims
	// (TileRows+1 × TileCols+1), attached by NewArchOn. NewMesh masks
	// the channel mesh with it; a bare NewArch floorplan has none and
	// masks nothing.
	Topo *device.Topology
}

// archCols returns the physical tile-column count for a data grid of
// cols columns (factory columns interspersed at the pitch).
func archCols(cols int) int {
	fcols := (cols + factoryColumnPitch - 1) / factoryColumnPitch
	if fcols < 1 {
		fcols = 1
	}
	return cols + fcols
}

// physicalCol maps a data-grid column to its physical column (shifted
// right once per factory column inserted to its left).
func physicalCol(c int) int { return c + c/factoryColumnPitch }

// NewArch builds the floorplan for a placement of logical qubits. Data
// columns keep their relative order; a factory column is inserted after
// every factoryColumnPitch data columns (and at the right edge when the
// last group is partial), so every tile is at most two columns from a
// magic-state source.
func NewArch(p *layout.Placement) (*Arch, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("braid: %w", err)
	}
	n := len(p.Pos)
	if n == 0 {
		return nil, fmt.Errorf("braid: no qubits to place")
	}
	fcols := archCols(p.Cols) - p.Cols
	a := &Arch{
		TileRows:  p.Rows,
		TileCols:  p.Cols + fcols,
		DataTiles: n,
		QubitTile: make([]layout.Coord, n),
	}
	// Physical column of data column c: shifted right once per factory
	// column already inserted to its left.
	for q, c := range p.Pos {
		a.QubitTile[q] = layout.Coord{Row: c.Row, Col: physicalCol(c.Col)}
	}
	// Factory columns sit after each group of factoryColumnPitch data
	// columns: physical columns pitch, 2*pitch+1, ... one port per row.
	for f := 0; f < fcols; f++ {
		col := (f+1)*factoryColumnPitch + f
		if col >= a.TileCols {
			col = a.TileCols - 1
		}
		for r := 0; r < p.Rows; r++ {
			a.FactoryTiles = append(a.FactoryTiles, layout.Coord{Row: r, Col: col})
		}
	}
	return a, nil
}

// NewArchOn builds the floorplan on a realized device topology (at the
// junction dims the placement implies). Factory ports whose attachment
// junction is dead are dropped from the floorplan; a placement that
// lands a qubit on a dead junction fails with an error matching
// scerr.ErrUnroutable. On an all-alive topology the floorplan is
// NewArch's.
func NewArchOn(p *layout.Placement, topo *device.Topology) (*Arch, error) {
	a, err := NewArch(p)
	if err != nil {
		return nil, err
	}
	if topo.Rows() != a.TileRows+1 || topo.Cols() != a.TileCols+1 {
		return nil, fmt.Errorf("braid: topology dims %dx%d do not match junction grid %dx%d",
			topo.Rows(), topo.Cols(), a.TileRows+1, a.TileCols+1)
	}
	a.Topo = topo
	for q, c := range a.QubitTile {
		if topo.TileDead(a.Junction(c)) {
			return nil, scerr.Unroutable("braid: qubit %d placed on dead tile %v", q, c)
		}
	}
	alive := a.FactoryTiles[:0]
	for _, f := range a.FactoryTiles {
		if !topo.TileDead(a.Junction(f)) {
			alive = append(alive, f)
		}
	}
	a.FactoryTiles = alive
	return a, nil
}

// Junction returns the mesh attachment point of a tile coordinate.
func (a *Arch) Junction(c layout.Coord) mesh.Node {
	return mesh.Node{Row: c.Row, Col: c.Col}
}

// QubitJunction returns the mesh attachment point of a logical qubit.
func (a *Arch) QubitJunction(q int) mesh.Node {
	return a.Junction(a.QubitTile[q])
}

// FactoryJunction returns the mesh attachment point of factory port f.
func (a *Arch) FactoryJunction(f int) mesh.Node {
	return a.Junction(a.FactoryTiles[f])
}

// NewMesh returns an empty channel mesh spanning all tile corners,
// masked with the floorplan's device topology.
func (a *Arch) NewMesh() *mesh.Mesh {
	m := mesh.New(a.TileRows+1, a.TileCols+1)
	if err := m.ApplyTopology(a.Topo); err != nil {
		panic(fmt.Sprintf("braid: arch/topology invariant broken: %v", err))
	}
	return m
}

// TotalTiles returns the tile count of the floorplan (data + factory).
func (a *Arch) TotalTiles() int {
	return a.DataTiles + len(a.FactoryTiles)
}

// PhysicalQubits returns the physical-qubit footprint of the floorplan
// at distance d: every tile (data and factory) plus the braid-channel
// corridors between tiles.
func (a *Arch) PhysicalQubits(d int) int {
	tile := surface.DoubleDefectTileQubits(d)
	tiles := a.TotalTiles() * tile
	channels := (a.TileRows + 1) * a.TileCols * surface.ChannelWidthQubits(d) * (2*d - 1)
	channels += (a.TileCols + 1) * a.TileRows * surface.ChannelWidthQubits(d) * (2*d - 1)
	return tiles + channels
}
