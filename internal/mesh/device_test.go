package mesh

import (
	"math/rand"
	"testing"

	"surfcomm/internal/device"
)

// refShortest is an independent BFS over the masked, reservation-free
// mesh: the oracle the stamp-scratch fallback is checked against.
func refShortest(m *Mesh, topo *device.Topology, a, b Node) (int, bool) {
	if topo.TileDead(a) || topo.TileDead(b) {
		return 0, false
	}
	dist := make(map[Node]int)
	dist[a] = 0
	queue := []Node{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == b {
			return dist[cur], true
		}
		for _, d := range []Node{{Row: 0, Col: 1}, {Row: 1, Col: 0}, {Row: 0, Col: -1}, {Row: -1, Col: 0}} {
			next := Node{Row: cur.Row + d.Row, Col: cur.Col + d.Col}
			if !m.InBounds(next) || topo.TileDead(next) || topo.LinkDisabled(cur, next) {
				continue
			}
			if _, seen := dist[next]; seen {
				continue
			}
			dist[next] = dist[cur] + 1
			queue = append(queue, next)
		}
	}
	return 0, false
}

// TestMaskedBFSFallbackProperty is the random-yield routing property
// test: on many realized defective devices, for random endpoint pairs,
// the BFS fallback (a) succeeds exactly when a path exists, (b) returns
// a valid self-avoiding path that never enters a dead junction or
// crosses a disabled link, and (c) is minimal — the same length as an
// independent shortest-path oracle.
func TestMaskedBFSFallbackProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		rows, cols := 4+rng.Intn(6), 4+rng.Intn(6)
		frac := 0.05 + 0.25*rng.Float64()
		dev := device.RandomYield(frac, rng.Int63())
		topo := dev.Instance(rows, cols)
		m := New(rows, cols)
		if err := m.ApplyTopology(topo); err != nil {
			t.Fatal(err)
		}
		var buf Path
		for pair := 0; pair < 20; pair++ {
			a := Node{Row: rng.Intn(rows), Col: rng.Intn(cols)}
			b := Node{Row: rng.Intn(rows), Col: rng.Intn(cols)}
			if a == b {
				continue
			}
			want, feasible := refShortest(m, topo, a, b)
			var got Path
			var ok bool
			got, ok = m.AdaptiveRouteInto(buf, a, b)
			buf = got
			if ok != feasible {
				t.Fatalf("trial %d: route %v->%v ok=%v, oracle feasible=%v (frac=%.2f)",
					trial, a, b, ok, feasible, frac)
			}
			if !ok {
				continue
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("trial %d: invalid path: %v", trial, err)
			}
			if got[0] != a || got[len(got)-1] != b {
				t.Fatalf("trial %d: path endpoints %v..%v, want %v..%v", trial, got[0], got[len(got)-1], a, b)
			}
			for i, n := range got {
				if topo.TileDead(n) {
					t.Fatalf("trial %d: path enters dead junction %v", trial, n)
				}
				if i > 0 && topo.LinkDisabled(got[i-1], n) {
					t.Fatalf("trial %d: path crosses disabled link %v-%v", trial, got[i-1], n)
				}
			}
			if len(got)-1 != want {
				t.Fatalf("trial %d: path length %d, oracle shortest %d", trial, len(got)-1, want)
			}
		}
	}
}

// TestMaskBlockedEscalation checks PathBlockedByMask distinguishes
// permanent mask obstructions from transient reservations.
func TestMaskedPathChecks(t *testing.T) {
	topo := device.NewTopology(4, 4)
	topo.DisableLink(Node{Row: 0, Col: 1}, Node{Row: 0, Col: 2})
	m := New(4, 4)
	if err := m.ApplyTopology(topo); err != nil {
		t.Fatal(err)
	}
	if !m.Masked() {
		t.Fatal("mesh not masked")
	}
	xy := XYPathInto(nil, Node{Row: 0, Col: 0}, Node{Row: 0, Col: 3})
	if m.PathFree(xy) {
		t.Fatal("path across disabled link reported free")
	}
	if !m.PathBlockedByMask(xy) {
		t.Fatal("disabled link not reported as mask obstruction")
	}
	detour := Path{{Row: 0, Col: 0}, {Row: 1, Col: 0}, {Row: 1, Col: 1}, {Row: 1, Col: 2}, {Row: 1, Col: 3}, {Row: 0, Col: 3}}
	if !m.PathFree(detour) {
		t.Fatal("detour path should be free")
	}
	if m.PathBlockedByMask(detour) {
		t.Fatal("detour reported mask-blocked")
	}
	if err := m.Reserve(detour, 1); err != nil {
		t.Fatal(err)
	}
	if m.PathBlockedByMask(detour) {
		t.Fatal("reservation must not count as mask obstruction")
	}
	// Reserving across the mask must fail without side effects.
	if err := m.Release(detour, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Reserve(xy, 2); err == nil {
		t.Fatal("reserve across disabled link succeeded")
	}
	if m.BusyLinks() != 0 {
		t.Fatalf("failed reserve left %d busy links", m.BusyLinks())
	}
}

// TestPerfectTopologyNoMask asserts applying a defect-free topology
// leaves the mesh on the unmasked fast path.
func TestPerfectTopologyNoMask(t *testing.T) {
	m := New(5, 5)
	if err := m.ApplyTopology(device.Perfect().Instance(5, 5)); err != nil {
		t.Fatal(err)
	}
	if m.Masked() {
		t.Fatal("perfect topology masked the mesh")
	}
}

// TestApplyTopologyDimsMismatch asserts dimension mismatches are
// rejected.
func TestApplyTopologyDimsMismatch(t *testing.T) {
	topo := device.NewTopology(3, 3)
	topo.DisableTile(Node{Row: 0, Col: 0})
	if err := New(4, 4).ApplyTopology(topo); err == nil {
		t.Fatal("dims mismatch accepted")
	}
}

// BenchmarkMaskedBFSFallback measures the stamp-scratch BFS fallback on
// a defective mesh — the defect-detour hot path of the braid router. It
// must stay allocation-free in steady state (the bench-smoke CI job
// watches allocs/op).
func BenchmarkMaskedBFSFallback(b *testing.B) {
	const rows, cols = 24, 24
	topo := device.RandomYield(0.08, 5).Instance(rows, cols)
	m := New(rows, cols)
	if err := m.ApplyTopology(topo); err != nil {
		b.Fatal(err)
	}
	// Deterministic corner-to-corner pairs that exercise long detours.
	pairs := [][2]Node{}
	comps := topo.Components()
	for r := 0; r < rows; r += 3 {
		a := Node{Row: r, Col: 0}
		c := Node{Row: rows - 1 - r, Col: cols - 1}
		if comps[r*cols] >= 0 && comps[r*cols] == comps[(rows-1-r)*cols+cols-1] {
			pairs = append(pairs, [2]Node{a, c})
		}
	}
	if len(pairs) == 0 {
		b.Fatal("no routable benchmark pairs — adjust seed")
	}
	var buf Path
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		var ok bool
		buf, ok = m.AdaptiveRouteInto(buf, p[0], p[1])
		if !ok {
			b.Fatal("routable pair failed")
		}
	}
}
