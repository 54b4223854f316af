package mesh

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewLinkNormalizes(t *testing.T) {
	a, b := Node{Row: 1, Col: 2}, Node{Row: 1, Col: 3}
	if NewLink(a, b) != NewLink(b, a) {
		t.Error("link normalization should make order irrelevant")
	}
	v1, v2 := Node{Row: 2, Col: 1}, Node{Row: 3, Col: 1}
	if NewLink(v2, v1).A != v1 {
		t.Error("vertical link should normalize to smaller row first")
	}
}

func TestPathValidate(t *testing.T) {
	good := Path{{Row: 0, Col: 0}, {Row: 0, Col: 1}, {Row: 1, Col: 1}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid path rejected: %v", err)
	}
	jump := Path{{Row: 0, Col: 0}, {Row: 0, Col: 2}}
	if err := jump.Validate(); err == nil {
		t.Error("non-adjacent step should fail")
	}
	revisit := Path{{Row: 0, Col: 0}, {Row: 0, Col: 1}, {Row: 0, Col: 0}}
	if err := revisit.Validate(); err == nil {
		t.Error("revisit should fail")
	}
	if err := (Path{}).Validate(); err == nil {
		t.Error("empty path should fail")
	}
	single := Path{{Row: 0, Col: 0}}
	if err := single.Validate(); err != nil {
		t.Errorf("single-junction path should be valid: %v", err)
	}
}

func TestPathLinks(t *testing.T) {
	p := Path{{Row: 0, Col: 0}, {Row: 0, Col: 1}, {Row: 1, Col: 1}}
	links := p.Links()
	if len(links) != 2 {
		t.Fatalf("links = %d, want 2", len(links))
	}
	if links[0] != NewLink(Node{Row: 0, Col: 0}, Node{Row: 0, Col: 1}) {
		t.Errorf("first link = %v", links[0])
	}
	if (Path{{Row: 0, Col: 0}}).Links() != nil {
		t.Error("single-node path has no links")
	}
}

func TestReserveRelease(t *testing.T) {
	m := New(4, 4)
	p := XYPathInto(nil, Node{Row: 0, Col: 0}, Node{Row: 2, Col: 3})
	if err := m.Reserve(p, 7); err != nil {
		t.Fatal(err)
	}
	if m.NodeOwner(Node{Row: 0, Col: 0}) != 7 {
		t.Error("endpoint not owned after reserve")
	}
	if m.BusyLinks() != len(p.Links()) {
		t.Errorf("busy links = %d, want %d", m.BusyLinks(), len(p.Links()))
	}
	// Conflicting reservation must fail atomically.
	q := XYPathInto(nil, Node{Row: 2, Col: 0}, Node{Row: 0, Col: 3}) // crosses p
	if err := m.Reserve(q, 8); err == nil {
		t.Fatal("crossing reservation should fail")
	}
	// Atomicity: nothing of q may be claimed.
	for _, n := range q {
		if o := m.NodeOwner(n); o != Free && o != 7 {
			t.Errorf("junction %v leaked owner %d", n, o)
		}
	}
	if err := m.Release(p, 7); err != nil {
		t.Fatal(err)
	}
	if m.BusyLinks() != 0 {
		t.Errorf("busy links after release = %d", m.BusyLinks())
	}
	if err := m.Reserve(q, 8); err != nil {
		t.Errorf("reservation after release should succeed: %v", err)
	}
}

func TestReserveRejectsBadOwner(t *testing.T) {
	m := New(2, 2)
	if err := m.Reserve(Path{{Row: 0, Col: 0}}, -1); err == nil {
		t.Error("negative owner should be rejected")
	}
}

func TestReleaseWrongOwnerFails(t *testing.T) {
	m := New(3, 3)
	p := XYPathInto(nil, Node{Row: 0, Col: 0}, Node{Row: 0, Col: 2})
	if err := m.Reserve(p, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(p, 2); err == nil {
		t.Error("release by non-owner should fail")
	}
	if err := m.Release(XYPathInto(nil, Node{Row: 2, Col: 0}, Node{Row: 2, Col: 2}), 1); err == nil {
		t.Error("release of unclaimed path should fail")
	}
}

func TestTwoBraidsCannotShareJunction(t *testing.T) {
	m := New(3, 3)
	// Path 1 passes through (1,1).
	if err := m.Reserve(Path{{Row: 1, Col: 0}, {Row: 1, Col: 1}}, 1); err != nil {
		t.Fatal(err)
	}
	// Path 2 would bend at (1,1) without sharing a link: still illegal.
	if err := m.Reserve(Path{{Row: 0, Col: 1}, {Row: 1, Col: 1}, {Row: 2, Col: 1}}, 2); err == nil {
		t.Error("junction sharing should be rejected (braids cannot cross)")
	}
}

func TestXYPathShape(t *testing.T) {
	p := XYPathInto(nil, Node{Row: 0, Col: 0}, Node{Row: 2, Col: 3})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p) != 6 {
		t.Errorf("XY path length = %d, want 6 (manhattan+1)", len(p))
	}
	// Horizontal leg first.
	if p[1] != (Node{Row: 0, Col: 1}) {
		t.Errorf("XY second hop = %v, want {0,1}", p[1])
	}
	if p[len(p)-1] != (Node{Row: 2, Col: 3}) {
		t.Error("XY path must end at destination")
	}
}

func TestYXPathShape(t *testing.T) {
	p := YXPathInto(nil, Node{Row: 0, Col: 0}, Node{Row: 2, Col: 3})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p[1] != (Node{Row: 1, Col: 0}) {
		t.Errorf("YX second hop = %v, want {1,0}", p[1])
	}
}

func TestPathsToSelf(t *testing.T) {
	for _, p := range []Path{XYPathInto(nil, Node{Row: 1, Col: 1}, Node{Row: 1, Col: 1}), YXPathInto(nil, Node{Row: 1, Col: 1}, Node{Row: 1, Col: 1})} {
		if len(p) != 1 {
			t.Errorf("self path length = %d, want 1", len(p))
		}
	}
}

func TestAdaptiveRouteFindsDetour(t *testing.T) {
	m := New(4, 4)
	// Wall across the middle rows at column 1, leaving row 3 open.
	if err := m.Reserve(Path{{Row: 0, Col: 1}, {Row: 1, Col: 1}, {Row: 2, Col: 1}}, 1); err != nil {
		t.Fatal(err)
	}
	p, ok := m.AdaptiveRouteInto(nil, Node{Row: 0, Col: 0}, Node{Row: 0, Col: 3})
	if !ok {
		t.Fatal("detour should exist via row 3")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !m.PathFree(p) {
		t.Error("adaptive route must avoid reserved resources")
	}
	if p[0] != (Node{Row: 0, Col: 0}) || p[len(p)-1] != (Node{Row: 0, Col: 3}) {
		t.Error("route endpoints wrong")
	}
}

func TestAdaptiveRouteShortestWhenFree(t *testing.T) {
	m := New(5, 5)
	p, ok := m.AdaptiveRouteInto(nil, Node{Row: 1, Col: 1}, Node{Row: 3, Col: 4})
	if !ok {
		t.Fatal("route should exist on empty mesh")
	}
	if len(p) != Manhattan(Node{Row: 1, Col: 1}, Node{Row: 3, Col: 4})+1 {
		t.Errorf("free-mesh adaptive route should be shortest: len %d", len(p))
	}
}

func TestAdaptiveRouteFailsWhenBlocked(t *testing.T) {
	m := New(3, 3)
	// Full wall down column 1.
	if err := m.Reserve(Path{{Row: 0, Col: 1}, {Row: 1, Col: 1}, {Row: 2, Col: 1}}, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.AdaptiveRouteInto(nil, Node{Row: 1, Col: 0}, Node{Row: 1, Col: 2}); ok {
		t.Error("no route should exist through a full wall")
	}
}

func TestAdaptiveRouteBusyEndpoint(t *testing.T) {
	m := New(3, 3)
	if err := m.Reserve(Path{{Row: 0, Col: 0}}, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.AdaptiveRouteInto(nil, Node{Row: 0, Col: 0}, Node{Row: 2, Col: 2}); ok {
		t.Error("busy source should not route")
	}
}

func TestUtilization(t *testing.T) {
	m := New(3, 3) // 3*2*2 = 12 links
	if m.TotalLinks() != 12 {
		t.Fatalf("total links = %d, want 12", m.TotalLinks())
	}
	if m.Utilization() != 0 {
		t.Error("fresh mesh should be idle")
	}
	if err := m.Reserve(Path{{Row: 0, Col: 0}, {Row: 0, Col: 1}, {Row: 0, Col: 2}}, 3); err != nil {
		t.Fatal(err)
	}
	if got := m.Utilization(); got != 2.0/12.0 {
		t.Errorf("utilization = %v, want %v", got, 2.0/12.0)
	}
}

// Property: reserve/release round-trips leave the mesh exactly empty,
// and XY/YX paths are always valid with Manhattan+1 nodes.
func TestMeshQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 2+rng.Intn(6), 2+rng.Intn(6)
		m := New(rows, cols)
		a := Node{Row: rng.Intn(rows), Col: rng.Intn(cols)}
		b := Node{Row: rng.Intn(rows), Col: rng.Intn(cols)}
		xy, yx := XYPathInto(nil, a, b), YXPathInto(nil, a, b)
		if xy.Validate() != nil || yx.Validate() != nil {
			return false
		}
		if len(xy) != Manhattan(a, b)+1 || len(yx) != Manhattan(a, b)+1 {
			return false
		}
		if err := m.Reserve(xy, 0); err != nil {
			return false
		}
		if err := m.Release(xy, 0); err != nil {
			return false
		}
		if m.BusyLinks() != 0 {
			return false
		}
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if m.NodeOwner(Node{Row: r, Col: c}) != Free {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
