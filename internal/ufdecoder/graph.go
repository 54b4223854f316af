// Package ufdecoder implements the union-find decoder (Delfosse &
// Nickerson's almost-linear-time decoder): defect-seeded clusters grow
// in half-edge steps over a detector graph, merging through a
// path-compressed union-find until every cluster has even parity, then
// a peeling pass over each cluster's grown spanning forest reads off
// the correction. It registers itself as the "unionfind"
// decoder.Strategy: slightly less accurate than matching, but
// near-linear in the defect count where matching is quadratic — the
// raw-speed strategy for large distances and real-time streaming.
//
// Every decode is a space-time decode over the closed toric volume of
// NewToricHistory: the torus has no boundary and the harness measures
// the final round perfectly, so there is no boundary node and a
// cluster is done exactly when its parity is even. A code-capacity
// decode is the one-round volume. The graph is built once per (distance,
// rounds) and reused across syndrome batches (the stim+pymatching
// workflow); per-solver scratch is stamp-reset, so steady-state
// decoding allocates nothing.
package ufdecoder

import (
	"surfcomm/internal/scerr"
)

// Graph is an immutable detector graph: nodes are stabilizer checks
// (one per check per round), edges are error mechanisms carrying the
// data-qubit observable they flip (or -1 for pure measurement errors).
// It is safe for concurrent read-only use; each solver brings its own
// mutable scratch.
type Graph struct {
	checks int // syndrome/change bit i maps to node i

	edgeU   []int32
	edgeV   []int32
	edgeObs []int32
	edgeW   []int16 // integer weight; an edge is fully grown at 2×weight half-steps

	// CSR adjacency: edges incident to node v are adj[adjOff[v]:adjOff[v+1]].
	adjOff []int32
	adj    []int32
}

// Checks returns the node count; syndrome/change bit i maps to node i.
func (g *Graph) Checks() int { return g.checks }

// Edges returns the edge count.
func (g *Graph) Edges() int { return len(g.edgeU) }

// Builder assembles a detector graph over check nodes 0..checks-1.
type Builder struct {
	checks int
	edges  []bedge
	err    error
}

type bedge struct {
	u, v int32
	obs  int32
	w    int16
}

// NewBuilder starts a graph over the given number of check nodes.
func NewBuilder(checks int) *Builder {
	b := &Builder{checks: checks}
	if checks < 1 {
		b.err = scerr.BadConfig("ufdecoder: need at least one check node, got %d", checks)
	}
	return b
}

// AddEdge connects nodes u and v with an error mechanism flipping
// observable obs (-1 for none, e.g. a measurement error) at integer
// weight w >= 1.
func (b *Builder) AddEdge(u, v, obs, w int) {
	if b.err != nil {
		return
	}
	n := b.checks
	if u < 0 || u >= n || v < 0 || v >= n || u == v {
		b.err = scerr.BadConfig("ufdecoder: bad edge (%d,%d) over %d nodes", u, v, n)
		return
	}
	if obs < -1 {
		b.err = scerr.BadConfig("ufdecoder: bad observable %d", obs)
		return
	}
	// 2×w (the full-support threshold) must fit in int16.
	if w < 1 || w >= 1<<14 {
		b.err = scerr.BadConfig("ufdecoder: edge weight %d outside [1, 2^14)", w)
		return
	}
	b.edges = append(b.edges, bedge{int32(u), int32(v), int32(obs), int16(w)})
}

// Build finalizes the graph.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.edges) == 0 {
		return nil, scerr.BadConfig("ufdecoder: graph has no edges")
	}
	n := b.checks
	g := &Graph{
		checks:  n,
		edgeU:   make([]int32, len(b.edges)),
		edgeV:   make([]int32, len(b.edges)),
		edgeObs: make([]int32, len(b.edges)),
		edgeW:   make([]int16, len(b.edges)),
		adjOff:  make([]int32, n+1),
		adj:     make([]int32, 2*len(b.edges)),
	}
	deg := make([]int32, n)
	for i, e := range b.edges {
		g.edgeU[i], g.edgeV[i], g.edgeObs[i], g.edgeW[i] = e.u, e.v, e.obs, e.w
		deg[e.u]++
		deg[e.v]++
	}
	off := int32(0)
	for v := 0; v < n; v++ {
		g.adjOff[v] = off
		off += deg[v]
	}
	g.adjOff[n] = off
	fill := make([]int32, n)
	copy(fill, g.adjOff[:n])
	for i, e := range b.edges {
		g.adj[fill[e.u]] = int32(i)
		fill[e.u]++
		g.adj[fill[e.v]] = int32(i)
		fill[e.v]++
	}
	return g, nil
}

// NewToricHistory builds the space-time detector graph for `rounds`
// syndrome-measurement rounds of the distance-d toric code's Z-check
// sector: node (t, i) = t*d² + i. Each round carries one unit-weight
// spatial edge per data qubit, matching the adjacency of
// decoder.Lattice (horizontal edge h(r,c) separates plaquettes (r-1,c)
// and (r,c); vertical edge v(r,c) separates (r,c-1) and (r,c); all
// arithmetic mod d), with the lattice's data-qubit index as its
// observable, shared across rounds. Unit-weight temporal edges
// (t,i)–(t+1,i) carry no observable (a measurement error flips a
// check's reading in consecutive change rounds but no data qubit). The
// volume is closed — the harness measures the final round perfectly —
// so there is no time boundary; at one round it is the code-capacity
// graph.
func NewToricHistory(d, rounds int) (*Graph, error) {
	if d < 3 || d%2 == 0 {
		return nil, scerr.BadConfig("ufdecoder: distance must be odd and >= 3, got %d", d)
	}
	if rounds < 1 {
		return nil, scerr.BadConfig("ufdecoder: need at least one round, got %d", rounds)
	}
	checks := d * d
	b := NewBuilder(rounds * checks)
	for t := 0; t < rounds; t++ {
		base := t * checks
		node := func(r, c int) int { return base + ((r+d)%d)*d + (c+d)%d }
		for r := 0; r < d; r++ {
			for c := 0; c < d; c++ {
				b.AddEdge(node(r-1, c), node(r, c), r*d+c, 1)
				b.AddEdge(node(r, c-1), node(r, c), checks+r*d+c, 1)
			}
		}
		if t+1 < rounds {
			for i := 0; i < checks; i++ {
				b.AddEdge(base+i, base+checks+i, -1, 1)
			}
		}
	}
	return b.Build()
}
