package mesh

import (
	"math/rand"
	"testing"

	"surfcomm/internal/device"
)

// refFreePath is an independent BFS through the public accessors: is
// there a path from a to b whose junctions and links are all unclaimed
// and unmasked?
func refFreePath(m *Mesh, a, b Node) bool {
	free := func(n Node) bool {
		return m.InBounds(n) && m.NodeOwner(n) == Free && !m.NodeMasked(n)
	}
	if !free(a) || !free(b) {
		return false
	}
	seen := map[Node]bool{a: true}
	queue := []Node{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == b {
			return true
		}
		for _, d := range []Node{{Row: 0, Col: 1}, {Row: 1, Col: 0}, {Row: 0, Col: -1}, {Row: -1, Col: 0}} {
			next := Node{Row: cur.Row + d.Row, Col: cur.Col + d.Col}
			if seen[next] || !free(next) || m.LinkOwner(NewLink(cur, next)) != Free || m.LinkMasked(cur, next) {
				continue
			}
			seen[next] = true
			queue = append(queue, next)
		}
	}
	return false
}

// TestUnreachableIsSound is a seeded random walk over perfect and
// masked meshes that interleaves Reserve, Release, MaskLink and
// AdaptiveRouteInto. After every step, for sampled pairs, Unreachable
// may answer true only when no free path exists: the reference BFS
// finds none and neither dimension-ordered path is free. A search that
// fails between free endpoints must leave a record that Unreachable
// reads at once.
func TestUnreachableIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	node := func(rows, cols int) Node { return Node{Row: rng.Intn(rows), Col: rng.Intn(cols)} }
	var proved, byRecord int
	for trial := 0; trial < 80; trial++ {
		rows, cols := 3+rng.Intn(7), 3+rng.Intn(7)
		m := New(rows, cols)
		if trial%2 == 1 {
			topo := device.RandomYield(0.05+0.2*rng.Float64(), rng.Int63()).Instance(rows, cols)
			if err := m.ApplyTopology(topo); err != nil {
				t.Fatal(err)
			}
		}
		var held []Path
		var buf, xy, yx Path
		for step := 0; step < 120; step++ {
			a, b := node(rows, cols), node(rows, cols)
			switch op := rng.Intn(8); {
			case op < 3: // claim a free route, as the engine does
				if p, ok := m.AdaptiveRouteInto(nil, a, b); ok {
					if err := m.Reserve(p, len(held)); err != nil {
						t.Fatal(err)
					}
					held = append(held, p)
				}
			case op < 5: // release a random claim
				if len(held) == 0 {
					continue
				}
				i := rng.Intn(len(held))
				if held[i] == nil {
					continue
				}
				if err := m.Release(held[i], i); err != nil {
					t.Fatal(err)
				}
				held[i] = nil
			case op < 6:
				if rng.Intn(2) == 0 {
					m.MaskLink(a, Node{Row: a.Row, Col: a.Col + 1})
				} else {
					m.MaskLink(a, Node{Row: a.Row + 1, Col: a.Col})
				}
			default: // a search alone, which records a failure
				var ok bool
				buf, ok = m.AdaptiveRouteInto(buf, a, b)
				if !ok && refFreePath(m, a, a) && refFreePath(m, b, b) && !m.Unreachable(a, b) {
					t.Fatalf("trial %d step %d: search %v->%v failed between free endpoints but left no record", trial, step, a, b)
				}
			}
			for pair := 0; pair < 12; pair++ {
				a, b := node(rows, cols), node(rows, cols)
				if !m.Unreachable(a, b) {
					continue
				}
				proved++
				if refFreePath(m, a, a) && refFreePath(m, b, b) {
					byRecord++
				}
				if refFreePath(m, a, b) {
					t.Fatalf("trial %d step %d: Unreachable(%v, %v) but a free path exists", trial, step, a, b)
				}
				xy, yx = XYPathInto(xy, a, b), YXPathInto(yx, a, b)
				if m.PathFree(xy) || m.PathFree(yx) {
					t.Fatalf("trial %d step %d: Unreachable(%v, %v) but a dimension-ordered path is free", trial, step, a, b)
				}
			}
		}
	}
	// Both kinds of proof must have been exercised.
	if byRecord == 0 || byRecord == proved {
		t.Fatalf("%d proofs, %d from flood records: the walk misses a kind", proved, byRecord)
	}
	t.Logf("%d unreachable pairs, %d proved by a flood record", proved, byRecord)
}

// TestUnreachableEdgeCases pins the endpoint cases and the lifetime of
// a flood record: it expires at Release and ApplyTopology, and
// survives Reserve and MaskLink, which only remove resources.
func TestUnreachableEdgeCases(t *testing.T) {
	m := New(5, 5)
	a, b := Node{Row: 2, Col: 0}, Node{Row: 2, Col: 4}
	if m.Unreachable(a, b) || m.Unreachable(a, a) {
		t.Fatal("idle mesh: a free pair or a free junction to itself is reachable")
	}
	if !m.Unreachable(a, Node{Row: 5, Col: 0}) || !m.Unreachable(Node{Row: -1, Col: 0}, a) {
		t.Fatal("an endpoint off the mesh is unreachable")
	}

	// A wall down column 2 cuts a from b; the endpoint of a claim is
	// unreachable from either side.
	wall := Path{{Row: 0, Col: 2}, {Row: 1, Col: 2}, {Row: 2, Col: 2}, {Row: 3, Col: 2}, {Row: 4, Col: 2}}
	if err := m.Reserve(wall, 1); err != nil {
		t.Fatal(err)
	}
	if !m.Unreachable(a, wall[2]) || !m.Unreachable(wall[2], a) || !m.Unreachable(wall[0], wall[0]) {
		t.Fatal("a claimed endpoint is unreachable")
	}
	if m.Unreachable(a, b) {
		t.Fatal("no search has run: Unreachable must not guess")
	}
	if _, ok := m.AdaptiveRouteInto(nil, a, b); ok {
		t.Fatal("the wall should block every route")
	}
	if !m.Unreachable(a, b) || !m.Unreachable(b, a) || !m.Unreachable(Node{Row: 0, Col: 0}, Node{Row: 4, Col: 3}) {
		t.Fatal("a failed search records the flooded component")
	}
	if m.Unreachable(a, Node{Row: 4, Col: 1}) {
		t.Fatal("a record covers only other components")
	}

	// Reserve and MaskLink keep the record.
	side := Path{{Row: 0, Col: 0}, {Row: 0, Col: 1}}
	if err := m.Reserve(side, 2); err != nil {
		t.Fatal(err)
	}
	m.MaskLink(Node{Row: 4, Col: 3}, Node{Row: 4, Col: 4})
	if !m.Unreachable(a, b) {
		t.Fatal("the record must survive Reserve and MaskLink")
	}

	// Release may join components: the record expires, though the wall
	// still stands.
	if err := m.Release(side, 2); err != nil {
		t.Fatal(err)
	}
	if m.Unreachable(a, b) {
		t.Fatal("Release must expire the record")
	}
	if _, ok := m.AdaptiveRouteInto(nil, a, b); ok || !m.Unreachable(a, b) {
		t.Fatal("a fresh failed search records again")
	}
	if err := m.ApplyTopology(nil); err != nil {
		t.Fatal(err)
	}
	if m.Unreachable(a, b) {
		t.Fatal("ApplyTopology must expire the record")
	}

	// A dead endpoint is unreachable.
	topo := device.NewTopology(5, 5)
	topo.DisableTile(Node{Row: 4, Col: 4})
	d := New(5, 5)
	if err := d.ApplyTopology(topo); err != nil {
		t.Fatal(err)
	}
	if !d.Unreachable(Node{Row: 4, Col: 4}, a) || !d.Unreachable(a, Node{Row: 4, Col: 4}) {
		t.Fatal("a dead endpoint is unreachable")
	}
	if d.Unreachable(a, b) {
		t.Fatal("live endpoints on an idle masked mesh are reachable")
	}
}
