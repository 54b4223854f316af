package braid

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"surfcomm/internal/apps"
	"surfcomm/internal/device"
	"surfcomm/internal/mesh"
	"surfcomm/internal/scerr"
)

// pathRespects asserts every consecutive pair of p is a coupler the
// graph keeps at the realized dims — the edge-set membership oracle.
func pathRespects(t *testing.T, g *device.CouplingGraph, rows, cols int, p mesh.Path, what string) {
	t.Helper()
	for i := 0; i+1 < len(p); i++ {
		a := device.Coord{Row: p[i].Row, Col: p[i].Col}
		b := device.Coord{Row: p[i+1].Row, Col: p[i+1].Col}
		if !g.HasEdge(rows, cols, a, b) {
			t.Fatalf("%s: path segment %v-%v traverses a coupler absent from %s", what, a, b, g.Name())
		}
	}
}

// TestHeavyHexSchedulesRespectEdgeSet compiles suite workloads on
// heavy-hex devices and checks every committed braid path against the
// pattern's own edge predicate: no route — dimension-ordered or BFS
// fallback — may traverse a coupler the lattice does not have. The
// schedules must also replay cleanly on the masked floorplan.
func TestHeavyHexSchedulesRespectEdgeSet(t *testing.T) {
	g := device.HeavyHexGraph()
	for _, w := range apps.Fig6Suite() {
		r, err := SimulateContext(context.Background(), w.Circuit, Policy6, Config{Distance: 5, RecordSchedule: true, Device: device.HeavyHex(1)})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if r.Arch.Topo == nil {
			t.Fatalf("%s: heavy-hex compile lost its topology", w.Name)
		}
		rows, cols := r.Arch.Topo.Rows(), r.Arch.Topo.Cols()
		for _, e := range r.Schedule {
			pathRespects(t, g, rows, cols, e.Path, w.Name)
		}
		if err := Replay(w.Circuit, r.Arch, r.Schedule); err != nil {
			t.Fatalf("%s: replay: %v", w.Name, err)
		}
	}
}

// TestHeavyHexAdaptiveRoutesRespectEdgeSet fuzzes the BFS fallback
// directly: on a heavy-hex-masked mesh, every route AdaptiveRouteInto
// finds must stay on existing couplers, for random endpoint pairs
// across several realized dims.
func TestHeavyHexAdaptiveRoutesRespectEdgeSet(t *testing.T) {
	g := device.HeavyHexGraph()
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][2]int{{5, 5}, {6, 9}, {9, 6}, {11, 13}} {
		rows, cols := dims[0], dims[1]
		topo := device.HeavyHex(1).Instance(rows, cols)
		m := mesh.New(rows, cols)
		if err := m.ApplyTopology(topo); err != nil {
			t.Fatalf("%dx%d: %v", rows, cols, err)
		}
		var buf mesh.Path
		routed := 0
		for trial := 0; trial < 200; trial++ {
			a := mesh.Node{Row: rng.Intn(rows), Col: rng.Intn(cols)}
			b := mesh.Node{Row: rng.Intn(rows), Col: rng.Intn(cols)}
			p, ok := m.AdaptiveRouteInto(buf, a, b)
			buf = p
			if !ok {
				continue
			}
			routed++
			pathRespects(t, g, rows, cols, p, "adaptive")
		}
		// The heavy-hex lattice is connected at any dims, so on an idle
		// mesh every pair must route.
		if routed != 200 {
			t.Fatalf("%dx%d: only %d/200 pairs routed on an idle heavy-hex mesh", rows, cols, routed)
		}
	}
}

// TestLiveDefectReroutesInFlight is the live-defect scenario: compile
// once to find a braid in flight, kill a coupler under it mid-schedule,
// and recompile with that defect event. The engine must tear the braid
// down and re-route (Reroutes > 0) without ErrUnroutable — the fabric
// is still connected — and no surviving schedule entry extending past
// the death cycle may hold the dead link. The rerouted schedule must
// replay cleanly.
func TestLiveDefectReroutesInFlight(t *testing.T) {
	c := apps.GSE(apps.GSEConfig{M: 10, Steps: 2})
	base, err := SimulateContext(context.Background(), c, Policy6, Config{Distance: 5, RecordSchedule: true})
	if err != nil {
		t.Fatal(err)
	}
	// Pick the longest-held braid-phase path and a link in its middle.
	var target ScheduleEntry
	found := false
	for _, e := range base.Schedule {
		if e.Kind == EntryLocal || len(e.Path) < 3 || e.End-e.Start < 3 {
			continue
		}
		if !found || e.End-e.Start > target.End-target.Start {
			target, found = e, true
		}
	}
	if !found {
		t.Fatal("baseline schedule has no braid held long enough to kill under")
	}
	mid := len(target.Path) / 2
	ev := device.DefectEvent{
		Cycle: target.Start + (target.End-target.Start)/2,
		A:     device.Coord{Row: target.Path[mid-1].Row, Col: target.Path[mid-1].Col},
		B:     device.Coord{Row: target.Path[mid].Row, Col: target.Path[mid].Col},
	}
	sched := &device.DefectSchedule{Name: "kill-one", Events: []device.DefectEvent{ev}}

	r, err := SimulateContext(context.Background(), c, Policy6, Config{Distance: 5, RecordSchedule: true, Defects: sched})
	if err != nil {
		if errors.Is(err, scerr.ErrUnroutable) {
			t.Fatalf("connected fabric reported unroutable after one coupler death: %v", err)
		}
		t.Fatal(err)
	}
	if r.Reroutes < 1 {
		t.Fatalf("Reroutes = %d, want >= 1 (coupler died at cycle %d under an in-flight braid)", r.Reroutes, ev.Cycle)
	}
	usesDeadLink := func(p mesh.Path) bool {
		a := mesh.Node{Row: ev.A.Row, Col: ev.A.Col}
		b := mesh.Node{Row: ev.B.Row, Col: ev.B.Col}
		for i := 0; i+1 < len(p); i++ {
			if (p[i] == a && p[i+1] == b) || (p[i] == b && p[i+1] == a) {
				return true
			}
		}
		return false
	}
	for _, e := range r.Schedule {
		if e.End > ev.Cycle && usesDeadLink(e.Path) {
			t.Fatalf("op %d %s [%d,%d) still holds the link killed at cycle %d",
				e.Op, e.Kind, e.Start, e.End, ev.Cycle)
		}
	}
	if err := Replay(c, r.Arch, r.Schedule); err != nil {
		t.Fatalf("rerouted schedule fails replay: %v", err)
	}
}

// TestDefectScheduleDeterministic pins that identical defect compiles
// are bit-identical, and that the whole-fabric death case still fails
// fast with ErrUnroutable.
func TestDefectScheduleDeterministic(t *testing.T) {
	c := apps.GSE(apps.GSEConfig{M: 10, Steps: 2})
	pre, err := SimulateContext(context.Background(), c, Policy6, Config{Distance: 5, RecordSchedule: true})
	if err != nil {
		t.Fatal(err)
	}
	jrows, jcols := pre.Arch.TileRows+1, pre.Arch.TileCols+1
	sched := device.RandomDefectSchedule(3, jrows, jcols, 4, pre.ScheduleCycles/2)
	if sched.Empty() {
		t.Fatal("random defect schedule drew no events")
	}
	a, err := SimulateContext(context.Background(), c, Policy6, Config{Distance: 5, RecordSchedule: true, Defects: sched})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateContext(context.Background(), c, Policy6, Config{Distance: 5, RecordSchedule: true, Defects: sched})
	if err != nil {
		t.Fatal(err)
	}
	if scheduleDigest(a.Schedule) != scheduleDigest(b.Schedule) {
		t.Fatal("identical defect compiles diverged")
	}

	// Kill every link at cycle 1: the fabric disconnects mid-run and the
	// engine must report ErrUnroutable instead of hanging.
	all := &device.DefectSchedule{Name: "all-dead"}
	for r := 0; r < jrows; r++ {
		for cc := 0; cc < jcols; cc++ {
			cur := device.Coord{Row: r, Col: cc}
			if cc+1 < jcols {
				all.Events = append(all.Events, device.DefectEvent{Cycle: 1, A: cur, B: device.Coord{Row: r, Col: cc + 1}})
			}
			if r+1 < jrows {
				all.Events = append(all.Events, device.DefectEvent{Cycle: 1, A: cur, B: device.Coord{Row: r + 1, Col: cc}})
			}
		}
	}
	if _, err := SimulateContext(context.Background(), c, Policy6, Config{Distance: 5, Defects: all}); !errors.Is(err, scerr.ErrUnroutable) {
		t.Fatalf("err = %v, want ErrUnroutable after whole-fabric death", err)
	}
}
