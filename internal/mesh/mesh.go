// Package mesh implements the circuit-switched two-dimensional channel
// network of the tiled double-defect architecture (paper §6.1, Fig. 5).
// Junctions sit at tile corners ("the tile corners are routers");
// channel segments between adjacent junctions are links. A braid claims
// an entire path — every link and junction along it — atomically when
// it opens and holds the claim until it closes: braids cannot cross,
// cannot be buffered, and cannot share channels (no virtual channels).
//
// The package is purely spatial: reservation state, path validity, and
// route search. Time (cycles, braid lifetimes, priorities) belongs to
// the braid package.
package mesh

import (
	"fmt"

	"surfcomm/internal/device"
)

// Node is a junction at a tile corner. It is the shared grid coordinate
// of the device layer, so junctions, tiles, and regions interconvert
// without copying.
type Node = device.Coord

// Link is an undirected channel segment between two adjacent junctions,
// stored in normalized order (A before B row-major).
type Link struct {
	A, B Node
}

// NewLink normalizes the endpoint order.
func NewLink(a, b Node) Link {
	if b.Row < a.Row || (b.Row == a.Row && b.Col < a.Col) {
		a, b = b, a
	}
	return Link{A: a, B: b}
}

// adjacent reports whether two junctions are one channel segment apart.
func adjacent(a, b Node) bool { return device.Adjacent(a, b) }

// Manhattan returns the junction-grid L1 distance.
func Manhattan(a, b Node) int { return device.Manhattan(a, b) }

// Path is a junction sequence; consecutive entries must be adjacent and
// no junction may repeat.
type Path []Node

// Validate checks contiguity and self-avoidance.
func (p Path) Validate() error {
	if len(p) == 0 {
		return fmt.Errorf("mesh: empty path")
	}
	seen := make(map[Node]bool, len(p))
	for i, n := range p {
		if seen[n] {
			return fmt.Errorf("mesh: path revisits junction %v", n)
		}
		seen[n] = true
		if i > 0 && !adjacent(p[i-1], n) {
			return fmt.Errorf("mesh: path jump %v -> %v", p[i-1], n)
		}
	}
	return nil
}

// Links returns the path's channel segments.
func (p Path) Links() []Link {
	if len(p) < 2 {
		return nil
	}
	out := make([]Link, len(p)-1)
	for i := 1; i < len(p); i++ {
		out[i-1] = NewLink(p[i-1], p[i])
	}
	return out
}

// Free is the owner value of unclaimed resources.
const Free = -1

// Mesh is the reservation state of a rows×cols junction grid.
//
// A Mesh also owns reusable route-search scratch (visit stamps, BFS
// predecessor and queue buffers) so AdaptiveRouteInto and path validation
// are allocation-free in steady state. The scratch makes a Mesh safe
// for one goroutine at a time; concurrent simulations each use their
// own Mesh.
type Mesh struct {
	rows, cols int
	nodeOwner  []int
	linkOwnerH []int // horizontal links: (r,c)-(r,c+1), rows×(cols-1)
	linkOwnerV []int // vertical links: (r,c)-(r+1,c), (rows-1)×cols
	busyLinks  int

	// Device mask (inactive on a perfect device): dead junctions and
	// disabled links are permanently unusable, independent of the
	// reservation state. The mask is one bool test per resource on the
	// hot path, so the perfect-device fast path stays allocation-free
	// and bit-identical.
	masked   bool
	topo     *device.Topology
	deadNode []bool
	maskH    []bool
	maskV    []bool

	// Route/validation scratch, grown once on first use. visitedAt is
	// stamp-based so clearing between searches is O(1): a node is
	// visited iff visitedAt[i] == stamp.
	stamp     int64
	visitedAt []int64
	bfsPrev   []int32 // predecessor node index during BFS
	bfsQueue  []int32

	// Flood records behind Unreachable. A failed AdaptiveRouteInto has
	// visited the whole free component of its source, and it writes its
	// stamp into floodID on every node of that component. A record is
	// live while its stamp is above floodFloor. Release and ApplyTopology
	// can join components, so they raise the floor to the current stamp;
	// Reserve and MaskLink only remove resources, so a live record still
	// covers the whole free component of every free node that bears it.
	floodID    []int64
	floodFloor int64
}

// New returns an empty mesh with the given junction-grid dimensions.
func New(rows, cols int) *Mesh {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("mesh: invalid dimensions %dx%d", rows, cols))
	}
	m := &Mesh{
		rows:       rows,
		cols:       cols,
		nodeOwner:  make([]int, rows*cols),
		linkOwnerH: make([]int, rows*(cols-1)),
		linkOwnerV: make([]int, (rows-1)*cols),
	}
	for i := range m.nodeOwner {
		m.nodeOwner[i] = Free
	}
	for i := range m.linkOwnerH {
		m.linkOwnerH[i] = Free
	}
	for i := range m.linkOwnerV {
		m.linkOwnerV[i] = Free
	}
	return m
}

// Rows returns the junction-grid row count.
func (m *Mesh) Rows() int { return m.rows }

// Cols returns the junction-grid column count.
func (m *Mesh) Cols() int { return m.cols }

// InBounds reports whether the junction exists.
func (m *Mesh) InBounds(n Node) bool {
	return n.Row >= 0 && n.Row < m.rows && n.Col >= 0 && n.Col < m.cols
}

func (m *Mesh) nodeIndex(n Node) int { return n.Row*m.cols + n.Col }

// linkIndex resolves a link to its storage slot; ok=false if the link
// is outside the mesh.
func (m *Mesh) linkIndex(l Link) (horizontal bool, idx int, ok bool) {
	if !m.InBounds(l.A) || !m.InBounds(l.B) || !adjacent(l.A, l.B) {
		return false, 0, false
	}
	if l.A.Row == l.B.Row {
		return true, l.A.Row*(m.cols-1) + min(l.A.Col, l.B.Col), true
	}
	return false, min(l.A.Row, l.B.Row)*m.cols + l.A.Col, true
}

// linkOwner returns a pointer to the owner slot of a link, or nil if the
// link is outside the mesh.
func (m *Mesh) linkOwner(l Link) *int {
	h, i, ok := m.linkIndex(l)
	if !ok {
		return nil
	}
	if h {
		return &m.linkOwnerH[i]
	}
	return &m.linkOwnerV[i]
}

// linkMasked reports whether a link is disabled by the device mask.
func (m *Mesh) linkMasked(l Link) bool {
	if !m.masked {
		return false
	}
	h, i, ok := m.linkIndex(l)
	if !ok {
		return false
	}
	if h {
		return m.maskH[i]
	}
	return m.maskV[i]
}

// ApplyTopology masks the mesh with a device topology at junction dims:
// dead cells become unusable junctions, disabled links unusable
// channels. The topology is retained for link-weight queries. Applying
// a perfect (non-degraded) topology leaves the mesh unmasked, so the
// ideal-grid behavior is bit-identical.
func (m *Mesh) ApplyTopology(t *device.Topology) error {
	m.floodFloor = m.stamp
	if t == nil {
		// Nil means perfect everywhere in the device layer: drop any
		// previously applied mask.
		m.masked = false
		m.topo = nil
		m.deadNode, m.maskH, m.maskV = nil, nil, nil
		return nil
	}
	if t.Rows() != m.rows || t.Cols() != m.cols {
		return fmt.Errorf("mesh: topology dims %dx%d do not match junction grid %dx%d",
			t.Rows(), t.Cols(), m.rows, m.cols)
	}
	if !t.Degraded() {
		// Clear any previously applied mask: the mesh is now perfect.
		m.masked = false
		m.topo = nil
		m.deadNode, m.maskH, m.maskV = nil, nil, nil
		return nil
	}
	m.masked = true
	m.topo = t
	m.deadNode = make([]bool, m.rows*m.cols)
	m.maskH = make([]bool, len(m.linkOwnerH))
	m.maskV = make([]bool, len(m.linkOwnerV))
	for r := 0; r < m.rows; r++ {
		for c := 0; c < m.cols; c++ {
			n := Node{Row: r, Col: c}
			if t.TileDead(n) {
				m.deadNode[m.nodeIndex(n)] = true
			}
			if c+1 < m.cols && t.LinkDisabled(n, Node{Row: r, Col: c + 1}) {
				m.maskH[r*(m.cols-1)+c] = true
			}
			if r+1 < m.rows && t.LinkDisabled(n, Node{Row: r + 1, Col: c}) {
				m.maskV[r*m.cols+c] = true
			}
		}
	}
	return nil
}

// Masked reports whether a device mask is active.
func (m *Mesh) Masked() bool { return m.masked }

// NodeMasked reports whether the junction is disabled by the device
// mask (out-of-bounds junctions count as masked).
func (m *Mesh) NodeMasked(n Node) bool {
	if !m.masked {
		return false
	}
	if !m.InBounds(n) {
		return true
	}
	return m.deadNode[m.nodeIndex(n)]
}

// PathBlockedByMask reports whether the path crosses a masked junction
// or link — a permanent obstruction, as opposed to a transient
// reservation. The braid router uses it to escalate straight to the BFS
// fallback instead of waiting out the congestion timeout.
func (m *Mesh) PathBlockedByMask(p Path) bool {
	if !m.masked {
		return false
	}
	for i, n := range p {
		if m.NodeMasked(n) {
			return true
		}
		if i > 0 && m.linkMasked(NewLink(p[i-1], n)) {
			return true
		}
	}
	return false
}

// PathMaxWeight returns the largest device link-latency multiplier
// along the path (1 on a perfect device).
func (m *Mesh) PathMaxWeight(p Path) float64 {
	if m.topo == nil {
		return 1
	}
	w := 1.0
	for i := 1; i < len(p); i++ {
		if lw := m.topo.LinkWeight(p[i-1], p[i]); lw > w {
			w = lw
		}
	}
	return w
}

// Calibrated reports whether the applied topology carries a calibration
// overlay — the flag that switches consumers from worst-link to
// per-traversed-link pricing.
func (m *Mesh) Calibrated() bool { return m.topo != nil && m.topo.Calibrated() }

// PathCost prices a path per traversed link under the applied
// calibration: Σ weight·(1+gateError) over the path's links — the
// generalization of the scalar PathMaxWeight to heterogeneous fabrics.
// Slow couplers cost their latency multiplier, error-prone couplers an
// additional fidelity penalty, so minimum-cost route selection prefers
// fast, clean corridors. On an uncalibrated mesh every link costs 1 and
// PathCost degenerates to the hop count.
func (m *Mesh) PathCost(p Path) float64 {
	if len(p) < 2 {
		return 0
	}
	if m.topo == nil {
		return float64(len(p) - 1)
	}
	cost := 0.0
	for i := 1; i < len(p); i++ {
		cost += m.topo.LinkWeight(p[i-1], p[i]) * (1 + m.topo.LinkErrorRate(p[i-1], p[i]))
	}
	return cost
}

// MaskLink disables one link at runtime — a coupler death from a
// live-defect schedule. Unlike ApplyTopology it composes with the
// current mask (or creates one on a previously perfect mesh) without
// touching reservation state: a braid currently holding the link keeps
// its claim until the engine tears it down and re-routes. Out-of-mesh
// links are ignored.
func (m *Mesh) MaskLink(a, b Node) {
	h, i, ok := m.linkIndex(NewLink(a, b))
	if !ok {
		return
	}
	if !m.masked {
		m.masked = true
		if m.deadNode == nil {
			m.deadNode = make([]bool, m.rows*m.cols)
		}
		if m.maskH == nil {
			m.maskH = make([]bool, len(m.linkOwnerH))
			m.maskV = make([]bool, len(m.linkOwnerV))
		}
	}
	if h {
		m.maskH[i] = true
	} else {
		m.maskV[i] = true
	}
}

// LinkMasked reports whether the link between two adjacent junctions is
// disabled by the device mask or a runtime MaskLink.
func (m *Mesh) LinkMasked(a, b Node) bool {
	return m.linkMasked(NewLink(a, b))
}

// NodeOwner returns the claim owner of a junction (Free if unclaimed).
func (m *Mesh) NodeOwner(n Node) int {
	if !m.InBounds(n) {
		return Free
	}
	return m.nodeOwner[m.nodeIndex(n)]
}

// LinkOwner returns the claim owner of a link (Free if unclaimed).
func (m *Mesh) LinkOwner(l Link) int {
	p := m.linkOwner(l)
	if p == nil {
		return Free
	}
	return *p
}

// PathFree reports whether every junction and link along the path is
// unclaimed and inside the mesh. Links are walked in place — no
// intermediate slice — so the check never allocates.
func (m *Mesh) PathFree(p Path) bool {
	for i, n := range p {
		if !m.InBounds(n) || m.nodeOwner[m.nodeIndex(n)] != Free {
			return false
		}
		if m.masked && m.deadNode[m.nodeIndex(n)] {
			return false
		}
		if i > 0 {
			l := NewLink(p[i-1], n)
			if o := m.linkOwner(l); o == nil || *o != Free {
				return false
			}
			if m.linkMasked(l) {
				return false
			}
		}
	}
	return true
}

// checkPath is the allocation-free Reserve precondition: contiguity,
// self-avoidance (stamp-marked, not map-based), bounds, and freeness in
// a single pass.
func (m *Mesh) checkPath(p Path) error {
	if len(p) == 0 {
		return fmt.Errorf("mesh: empty path")
	}
	m.growScratch()
	m.stamp++
	for i, n := range p {
		if !m.InBounds(n) {
			return fmt.Errorf("mesh: path not free")
		}
		ni := m.nodeIndex(n)
		if m.visitedAt[ni] == m.stamp {
			return fmt.Errorf("mesh: path revisits junction %v", n)
		}
		m.visitedAt[ni] = m.stamp
		if m.nodeOwner[ni] != Free || (m.masked && m.deadNode[ni]) {
			return fmt.Errorf("mesh: path not free")
		}
		if i > 0 {
			if !adjacent(p[i-1], n) {
				return fmt.Errorf("mesh: path jump %v -> %v", p[i-1], n)
			}
			l := NewLink(p[i-1], n)
			if *m.linkOwner(l) != Free || m.linkMasked(l) {
				return fmt.Errorf("mesh: path not free")
			}
		}
	}
	return nil
}

// Reserve atomically claims the whole path for the owner. It fails
// without side effects if any resource is taken (braids claim all-or-
// nothing: a partial braid is physically meaningless). Owner must be a
// non-negative id.
func (m *Mesh) Reserve(p Path, owner int) error {
	if owner < 0 {
		return fmt.Errorf("mesh: owner must be non-negative, got %d", owner)
	}
	if err := m.checkPath(p); err != nil {
		return err
	}
	for i, n := range p {
		m.nodeOwner[m.nodeIndex(n)] = owner
		if i > 0 {
			*m.linkOwner(NewLink(p[i-1], n)) = owner
		}
	}
	m.busyLinks += len(p) - 1
	return nil
}

// Release frees a path previously claimed by owner. Ownership is
// verified on every resource; a mismatch means engine corruption and is
// reported rather than silently absorbed.
func (m *Mesh) Release(p Path, owner int) error {
	if len(p) == 0 {
		return fmt.Errorf("mesh: empty path")
	}
	for i, n := range p {
		if !m.InBounds(n) || m.nodeOwner[m.nodeIndex(n)] != owner {
			return fmt.Errorf("mesh: junction %v not owned by %d", n, owner)
		}
		if i > 0 {
			if o := m.linkOwner(NewLink(p[i-1], n)); o == nil || *o != owner {
				return fmt.Errorf("mesh: link %v not owned by %d", NewLink(p[i-1], n), owner)
			}
		}
	}
	for i, n := range p {
		m.nodeOwner[m.nodeIndex(n)] = Free
		if i > 0 {
			*m.linkOwner(NewLink(p[i-1], n)) = Free
		}
	}
	m.busyLinks -= len(p) - 1
	m.floodFloor = m.stamp
	return nil
}

// Unreachable reports, in O(1), that no free path joins a and b: an
// endpoint is claimed, dead or off the mesh, or a failed
// AdaptiveRouteInto since the last Release flooded the free component
// of one endpoint and did not reach the other. Every dimension-ordered
// and adaptive route between such endpoints is sure to fail. False
// proves nothing: a route may still fail.
func (m *Mesh) Unreachable(a, b Node) bool {
	if !m.InBounds(a) || !m.InBounds(b) {
		return true
	}
	ai, bi := m.nodeIndex(a), m.nodeIndex(b)
	if m.nodeOwner[ai] != Free || m.nodeOwner[bi] != Free {
		return true
	}
	if m.masked && (m.deadNode[ai] || m.deadNode[bi]) {
		return true
	}
	if m.floodID == nil {
		return false
	}
	fa, fb := m.floodID[ai], m.floodID[bi]
	return fa != fb && max(fa, fb) > m.floodFloor
}

// BusyLinks returns the number of currently claimed links.
func (m *Mesh) BusyLinks() int { return m.busyLinks }

// TotalLinks returns the link count of the mesh.
func (m *Mesh) TotalLinks() int { return len(m.linkOwnerH) + len(m.linkOwnerV) }

// Utilization returns the fraction of links currently claimed.
func (m *Mesh) Utilization() float64 {
	if m.TotalLinks() == 0 {
		return 0
	}
	return float64(m.busyLinks) / float64(m.TotalLinks())
}

// growScratch sizes the route-search scratch to the mesh (once).
func (m *Mesh) growScratch() {
	if n := m.rows * m.cols; len(m.visitedAt) < n {
		m.visitedAt = make([]int64, n)
		m.bfsPrev = make([]int32, n)
		m.bfsQueue = make([]int32, 0, n)
		m.floodID = make([]int64, n)
	}
}
