package mesh

import (
	"math/rand"
	"testing"
)

// The adaptive router runs on reusable stamp-based scratch; these tests
// pin down its edge cases and prove the hot path is allocation-free and
// history-independent (reused scratch never changes an answer).

func TestAdaptiveRouteBlockedDestination(t *testing.T) {
	m := New(3, 3)
	if err := m.Reserve(Path{{Row: 2, Col: 2}}, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.AdaptiveRouteInto(nil, Node{Row: 0, Col: 0}, Node{Row: 2, Col: 2}); ok {
		t.Error("busy destination should not route")
	}
}

func TestAdaptiveRouteOutOfBounds(t *testing.T) {
	m := New(3, 3)
	if _, ok := m.AdaptiveRouteInto(nil, Node{Row: -1, Col: 0}, Node{Row: 2, Col: 2}); ok {
		t.Error("out-of-bounds source should not route")
	}
	if _, ok := m.AdaptiveRouteInto(nil, Node{Row: 0, Col: 0}, Node{Row: 3, Col: 0}); ok {
		t.Error("out-of-bounds destination should not route")
	}
}

func TestAdaptiveRouteSelf(t *testing.T) {
	m := New(2, 2)
	p, ok := m.AdaptiveRouteInto(nil, Node{Row: 1, Col: 1}, Node{Row: 1, Col: 1})
	if !ok || len(p) != 1 || p[0] != (Node{Row: 1, Col: 1}) {
		t.Errorf("self route = %v ok=%v, want single-junction path", p, ok)
	}
}

func TestAdaptiveRouteNoCorridorMesh(t *testing.T) {
	// A 1×n strip: reserving any interior junction splits the mesh into
	// halves with no corridor between them.
	m := New(1, 5)
	if err := m.Reserve(Path{{Row: 0, Col: 2}}, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.AdaptiveRouteInto(nil, Node{Row: 0, Col: 0}, Node{Row: 0, Col: 4}); ok {
		t.Error("severed strip should not route")
	}
	// Endpoints on the same side still route.
	if _, ok := m.AdaptiveRouteInto(nil, Node{Row: 0, Col: 0}, Node{Row: 0, Col: 1}); !ok {
		t.Error("same-side route should exist")
	}
}

func TestAdaptiveRouteBlockedLinkOnly(t *testing.T) {
	// Claim only the link (0,0)-(0,1) by reserving the two-junction path
	// then freeing... links cannot be claimed without junctions here, so
	// instead wall the direct corridor and require the detour to avoid a
	// free-junction/busy-link combination: reserve a path, release it,
	// and re-reserve a sub-path so stale scratch state would be visible.
	m := New(2, 2)
	wall := Path{{Row: 0, Col: 0}, {Row: 0, Col: 1}}
	if err := m.Reserve(wall, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(wall, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Reserve(Path{{Row: 0, Col: 1}}, 2); err != nil {
		t.Fatal(err)
	}
	p, ok := m.AdaptiveRouteInto(nil, Node{Row: 0, Col: 0}, Node{Row: 1, Col: 1})
	if !ok {
		t.Fatal("detour via (1,0) should exist")
	}
	for _, n := range p {
		if n == (Node{Row: 0, Col: 1}) {
			t.Error("route crossed a claimed junction")
		}
	}
}

// TestAdaptiveRouteScratchReuse drives many searches over the same mesh
// with mutating reservation state and checks each answer against a
// fresh mesh with identical reservations: reused stamps, queues, and
// predecessor buffers must never leak state between calls.
func TestAdaptiveRouteScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := New(6, 6)
	var held []Path
	for iter := 0; iter < 200; iter++ {
		// Mutate: randomly reserve or release.
		if len(held) > 0 && rng.Intn(2) == 0 {
			i := rng.Intn(len(held))
			if err := m.Release(held[i], 7); err != nil {
				t.Fatal(err)
			}
			held = append(held[:i], held[i+1:]...)
		} else {
			a := Node{Row: rng.Intn(6), Col: rng.Intn(6)}
			b := Node{Row: rng.Intn(6), Col: rng.Intn(6)}
			p := XYPathInto(nil, a, b)
			if m.PathFree(p) {
				if err := m.Reserve(p, 7); err != nil {
					t.Fatal(err)
				}
				held = append(held, p)
			}
		}
		// Probe: adaptive route on the reused mesh vs a pristine clone.
		src := Node{Row: rng.Intn(6), Col: rng.Intn(6)}
		dst := Node{Row: rng.Intn(6), Col: rng.Intn(6)}
		got, gotOK := m.AdaptiveRouteInto(nil, src, dst)
		fresh := New(6, 6)
		for _, p := range held {
			if err := fresh.Reserve(p, 7); err != nil {
				t.Fatal(err)
			}
		}
		want, wantOK := fresh.AdaptiveRouteInto(nil, src, dst)
		if gotOK != wantOK {
			t.Fatalf("iter %d: reused scratch ok=%v, fresh mesh ok=%v", iter, gotOK, wantOK)
		}
		if gotOK && len(got) != len(want) {
			t.Fatalf("iter %d: reused scratch path len %d, fresh %d", iter, len(got), len(want))
		}
		if gotOK {
			if err := got.Validate(); err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			if !m.PathFree(got) {
				t.Fatalf("iter %d: route crosses reserved resources", iter)
			}
		}
	}
}

func TestPathIntoVariantsMatchPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	buf := make(Path, 0, 4) // deliberately small: must grow correctly
	for i := 0; i < 50; i++ {
		a := Node{Row: rng.Intn(7), Col: rng.Intn(7)}
		b := Node{Row: rng.Intn(7), Col: rng.Intn(7)}
		buf = XYPathInto(buf, a, b)
		if want := XYPathInto(nil, a, b); !pathsEqual(buf, want) {
			t.Fatalf("XYPathInto %v->%v = %v, want %v", a, b, buf, want)
		}
		buf = YXPathInto(buf, a, b)
		if want := YXPathInto(nil, a, b); !pathsEqual(buf, want) {
			t.Fatalf("YXPathInto %v->%v = %v, want %v", a, b, buf, want)
		}
	}
}

func pathsEqual(a, b Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The braid engine routes on every placement attempt; once the scratch
// and destination buffers are warm, the whole reserve/route/release
// cycle must not allocate.
func TestRoutingHotPathAllocationFree(t *testing.T) {
	m := New(8, 8)
	wall := Path{{Row: 0, Col: 3}, {Row: 1, Col: 3}, {Row: 2, Col: 3}, {Row: 3, Col: 3}, {Row: 4, Col: 3}, {Row: 5, Col: 3}}
	if err := m.Reserve(wall, 1); err != nil {
		t.Fatal(err)
	}
	dst := make(Path, 0, 64)
	xy := make(Path, 0, 64)
	// Warm the scratch.
	if _, ok := m.AdaptiveRouteInto(dst, Node{Row: 2, Col: 0}, Node{Row: 2, Col: 7}); !ok {
		t.Fatal("detour should exist under the wall")
	}
	allocs := testing.AllocsPerRun(100, func() {
		xy = XYPathInto(xy, Node{Row: 2, Col: 0}, Node{Row: 2, Col: 7})
		if m.PathFree(xy) {
			t.Fatal("direct path should be blocked by the wall")
		}
		p, ok := m.AdaptiveRouteInto(dst, Node{Row: 2, Col: 0}, Node{Row: 2, Col: 7})
		if !ok {
			t.Fatal("adaptive route vanished")
		}
		if err := m.Reserve(p, 2); err != nil {
			t.Fatal(err)
		}
		if err := m.Release(p, 2); err != nil {
			t.Fatal(err)
		}
		dst = p
	})
	if allocs != 0 {
		t.Errorf("routing hot path allocates %.1f times per cycle, want 0", allocs)
	}
}
