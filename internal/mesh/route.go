package mesh

// Routing for braid paths (paper §6.1): a query that is sure to fail is
// refused before any path is built (Unreachable: an endpoint is claimed
// or dead, or a failed search has already flooded one endpoint's free
// component without reaching the other); otherwise dimension-ordered
// routes are tried first, and when the network is congested the engine
// escalates to an adaptive shortest-path search over currently-free
// resources. On a device-masked mesh (ApplyTopology) the same
// stamp-scratch BFS doubles as the defect fallback: dead junctions and
// disabled links are never entered, and the engine escalates to it
// immediately when a dimension-ordered path is blocked by the mask
// rather than by congestion (PathBlockedByMask).
//
// Every routine writes the route into a caller-supplied buffer (reusing
// its capacity; nil allocates a fresh one) so the braid engine's
// placement loop — which routes on every attempt, including the many
// failed ones — allocates nothing in steady state.

// XYPathInto writes the dimension-ordered route from a to b —
// horizontal first, then vertical — into dst[:0], growing it only when
// capacity is insufficient. Always valid, ignores reservations.
func XYPathInto(dst Path, a, b Node) Path {
	p := append(dst[:0], a)
	cur := a
	for cur.Col != b.Col {
		if b.Col > cur.Col {
			cur.Col++
		} else {
			cur.Col--
		}
		p = append(p, cur)
	}
	for cur.Row != b.Row {
		if b.Row > cur.Row {
			cur.Row++
		} else {
			cur.Row--
		}
		p = append(p, cur)
	}
	return p
}

// YXPathInto writes the dimension-ordered route from a to b —
// vertical first, then horizontal — into dst[:0], growing it only when
// capacity is insufficient.
func YXPathInto(dst Path, a, b Node) Path {
	p := append(dst[:0], a)
	cur := a
	for cur.Row != b.Row {
		if b.Row > cur.Row {
			cur.Row++
		} else {
			cur.Row--
		}
		p = append(p, cur)
	}
	for cur.Col != b.Col {
		if b.Col > cur.Col {
			cur.Col++
		} else {
			cur.Col--
		}
		p = append(p, cur)
	}
	return p
}

// AdaptiveRouteInto searches for the shortest path from a to b across
// currently-free junctions and links (BFS) and writes it into dst[:0].
// It returns ok=false when no free corridor exists, at once when
// Unreachable already proves it. Used by the braid engine after
// dimension-ordered attempts time out. The search itself runs on the
// mesh's reusable stamp-based scratch, so repeated calls allocate
// nothing once the scratch and dst have grown to size. On failure the
// returned path is dst[:0] (capacity preserved for reuse), and a search
// that ran records the free component it flooded for Unreachable.
func (m *Mesh) AdaptiveRouteInto(dst Path, a, b Node) (Path, bool) {
	dst = dst[:0]
	if m.Unreachable(a, b) {
		return dst, false
	}
	if a == b {
		return append(dst, a), true
	}
	m.growScratch()
	m.stamp++
	queue := m.bfsQueue[:0]
	queue = append(queue, int32(m.nodeIndex(a)))
	m.visitedAt[m.nodeIndex(a)] = m.stamp
	dirs := [4]Node{{Row: 0, Col: 1}, {Row: 1, Col: 0}, {Row: 0, Col: -1}, {Row: -1, Col: 0}}
	for head := 0; head < len(queue); head++ {
		ci := int(queue[head])
		cur := Node{Row: ci / m.cols, Col: ci % m.cols}
		for _, d := range dirs {
			next := Node{Row: cur.Row + d.Row, Col: cur.Col + d.Col}
			if !m.InBounds(next) {
				continue
			}
			ni := m.nodeIndex(next)
			if m.visitedAt[ni] == m.stamp {
				continue
			}
			if m.nodeOwner[ni] != Free || (m.masked && m.deadNode[ni]) {
				continue
			}
			l := NewLink(cur, next)
			if *m.linkOwner(l) != Free || m.linkMasked(l) {
				continue
			}
			m.visitedAt[ni] = m.stamp
			m.bfsPrev[ni] = int32(ci)
			if next == b {
				m.bfsQueue = queue[:0]
				return m.reconstructInto(dst, a, b), true
			}
			queue = append(queue, int32(ni))
		}
	}
	// The search visited a's whole free component without reaching b:
	// record it for Unreachable.
	for _, ni := range queue {
		m.floodID[ni] = m.stamp
	}
	m.bfsQueue = queue[:0]
	return dst, false
}

// reconstructInto walks the BFS predecessor chain b→a into dst, then
// reverses it in place.
func (m *Mesh) reconstructInto(dst Path, a, b Node) Path {
	ai := m.nodeIndex(a)
	for ci := m.nodeIndex(b); ci != ai; ci = int(m.bfsPrev[ci]) {
		dst = append(dst, Node{Row: ci / m.cols, Col: ci % m.cols})
	}
	dst = append(dst, a)
	for i, j := 0, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}
