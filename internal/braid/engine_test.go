package braid

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"surfcomm/internal/apps"
	"surfcomm/internal/circuit"
	"surfcomm/internal/layout"
)

func mustSimulate(t *testing.T, c *circuit.Circuit, p Policy, cfg Config) Result {
	t.Helper()
	r, err := SimulateContext(context.Background(), c, p, cfg)
	if err != nil {
		t.Fatalf("%s under %v: %v", c.Name, p, err)
	}
	return r
}

func TestSingleCNOTMatchesCriticalPath(t *testing.T) {
	c := circuit.New("one", 2)
	c.Append(circuit.CNOT, 0, 1)
	r := mustSimulate(t, c, Policy1, Config{Distance: 5})
	want := int64(2 * (5 + 1)) // two braid phases
	if r.ScheduleCycles != want {
		t.Errorf("schedule = %d, want %d", r.ScheduleCycles, want)
	}
	if r.CriticalPathCycles != want {
		t.Errorf("critical = %d, want %d", r.CriticalPathCycles, want)
	}
	if r.Ratio != 1.0 {
		t.Errorf("ratio = %v, want 1.0", r.Ratio)
	}
	if r.BraidsPlaced != 2 {
		t.Errorf("braids placed = %d, want 2 (open + close)", r.BraidsPlaced)
	}
	if r.AvgUtilization <= 0 || r.AvgUtilization > 1 {
		t.Errorf("utilization = %v out of range", r.AvgUtilization)
	}
}

func TestSerialLocalChain(t *testing.T) {
	c := circuit.New("chain", 1)
	for i := 0; i < 10; i++ {
		c.Append(circuit.H, 0)
	}
	r := mustSimulate(t, c, Policy0, Config{Distance: 7})
	// Local logical gates are transversal/frame operations: 1 cycle.
	if r.ScheduleCycles != 10 {
		t.Errorf("schedule = %d, want 10", r.ScheduleCycles)
	}
	if r.Ratio != 1.0 {
		t.Errorf("serial chain ratio = %v, want 1.0", r.Ratio)
	}
	if r.BraidsPlaced != 0 {
		t.Error("local chain should place no braids")
	}
}

func TestMeasPrepFastLocal(t *testing.T) {
	c := circuit.New("mp", 1)
	c.Append(circuit.PrepZ, 0)
	c.Append(circuit.MeasZ, 0)
	r := mustSimulate(t, c, Policy1, Config{Distance: 9})
	if r.ScheduleCycles != 2 {
		t.Errorf("prep+meas schedule = %d, want 2", r.ScheduleCycles)
	}
}

func TestBarrierOnlyCircuit(t *testing.T) {
	c := circuit.New("fences", 2)
	c.Append(circuit.Barrier, 0, 1)
	c.Append(circuit.Barrier, 0, 1)
	r := mustSimulate(t, c, Policy1, Config{Distance: 5})
	if r.ScheduleCycles != 0 {
		t.Errorf("barrier-only schedule = %d, want 0", r.ScheduleCycles)
	}
}

func TestParallelDisjointCNOTs(t *testing.T) {
	// Two CNOTs between vertically adjacent tiles in different columns
	// of a 2x2 grid: (0,0)-(1,0)... with row-major on 4 qubits, pairs
	// (0,2) and (1,3) are vertical neighbors with disjoint routes.
	c := circuit.New("par", 4)
	c.Append(circuit.CNOT, 0, 2)
	c.Append(circuit.CNOT, 1, 3)
	r := mustSimulate(t, c, Policy1, Config{Distance: 5})
	want := int64(2 * (5 + 1))
	if r.ScheduleCycles != want {
		t.Errorf("disjoint braids should run concurrently: schedule %d, want %d",
			r.ScheduleCycles, want)
	}
}

func TestConflictingBraidsSerialize(t *testing.T) {
	// Two braids sharing a junction cannot coexist; under Policy 1 with
	// row-major layout, CNOT(0,1) and CNOT(1,2)... share qubit 1 (data
	// dependency). Instead use CNOT(0,3) and CNOT(1,2) on a 2x2 grid:
	// XY routes both traverse junction (0,1).
	c := circuit.New("conflict", 4)
	c.Append(circuit.CNOT, 0, 3)
	c.Append(circuit.CNOT, 1, 2)
	r := mustSimulate(t, c, Policy1, Config{Distance: 5, AdaptTimeout: 1 << 30})
	// With adaptivity disabled the second braid must wait for a phase.
	if r.ScheduleCycles <= 2*(5+1) {
		t.Errorf("conflicting braids finished too fast: %d", r.ScheduleCycles)
	}
	if r.Ratio <= 1.0 {
		t.Errorf("conflict should push ratio above 1, got %v", r.Ratio)
	}
}

func TestAdaptiveRoutingRelievesConflict(t *testing.T) {
	c := circuit.New("adapt", 4)
	c.Append(circuit.CNOT, 0, 3)
	c.Append(circuit.CNOT, 1, 2)
	blocked := mustSimulate(t, c, Policy1, Config{Distance: 5, AdaptTimeout: 1 << 30})
	adaptive := mustSimulate(t, c, Policy1, Config{Distance: 5, AdaptTimeout: 1})
	if adaptive.ScheduleCycles > blocked.ScheduleCycles {
		t.Errorf("adaptivity should not hurt: %d > %d",
			adaptive.ScheduleCycles, blocked.ScheduleCycles)
	}
}

func TestScheduleNeverBeatsCriticalPath(t *testing.T) {
	for _, w := range []apps.Workload{
		{Name: "GSE", Circuit: apps.GSE(apps.GSEConfig{M: 5, Steps: 1})},
		{Name: "SQ", Circuit: apps.SQ(apps.SQConfig{N: 4, Iters: 1})},
		{Name: "IM", Circuit: apps.Ising(apps.IsingConfig{N: 12, Steps: 1}, true)},
	} {
		for _, p := range AllPolicies {
			r := mustSimulate(t, w.Circuit, p, Config{Distance: 5})
			if r.ScheduleCycles < r.CriticalPathCycles {
				t.Errorf("%s %v: schedule %d beats critical path %d",
					w.Name, p, r.ScheduleCycles, r.CriticalPathCycles)
			}
			if r.AvgUtilization < 0 || r.AvgUtilization > 1 {
				t.Errorf("%s %v: utilization %v out of range", w.Name, p, r.AvgUtilization)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	c := apps.Ising(apps.IsingConfig{N: 12, Steps: 1}, true)
	a := mustSimulate(t, c, Policy6, Config{Distance: 5, Seed: 3})
	b := mustSimulate(t, c, Policy6, Config{Distance: 5, Seed: 3})
	if a.ScheduleCycles != b.ScheduleCycles || a.BraidsPlaced != b.BraidsPlaced ||
		a.AdaptiveRoutes != b.AdaptiveRoutes || a.AvgUtilization != b.AvgUtilization {
		t.Errorf("nondeterministic simulation: %+v vs %+v", a, b)
	}
}

func TestPoliciesImproveParallelApp(t *testing.T) {
	c := apps.Ising(apps.IsingConfig{N: 24, Steps: 1}, true)
	p0 := mustSimulate(t, c, Policy0, Config{Distance: 5})
	p6 := mustSimulate(t, c, Policy6, Config{Distance: 5})
	if p6.Ratio >= p0.Ratio {
		t.Errorf("Policy 6 ratio %.2f should beat Policy 0 ratio %.2f", p6.Ratio, p0.Ratio)
	}
	// Utilization ordering is an emergent full-scale effect (Figure 6
	// bench); at unit-test scale we only require sane values.
	if p6.AvgUtilization <= 0 || p0.AvgUtilization <= 0 {
		t.Errorf("utilizations should be positive: p0=%.3f p6=%.3f",
			p0.AvgUtilization, p6.AvgUtilization)
	}
}

func TestSerialAppAlreadyNearCriticalPath(t *testing.T) {
	c := apps.GSE(apps.GSEConfig{M: 6, Steps: 1})
	r := mustSimulate(t, c, Policy0, Config{Distance: 5})
	if r.Ratio > 2.5 {
		t.Errorf("serial app ratio = %.2f, expected near critical path", r.Ratio)
	}
}

func TestMagicTrafficDefault(t *testing.T) {
	c := circuit.New("ts", 2)
	c.Append(circuit.T, 0)
	c.Append(circuit.T, 1)
	c.Append(circuit.Tdg, 0)
	r := mustSimulate(t, c, Policy1, Config{Distance: 5})
	if r.BraidsPlaced != 6 {
		t.Errorf("3 T gates should place 6 braid phases, got %d", r.BraidsPlaced)
	}
	if r.ScheduleCycles <= 0 {
		t.Error("schedule empty")
	}
	// Ablation: with pre-delivered states, T is local.
	r2 := mustSimulate(t, c, Policy1, Config{Distance: 5, LocalTOps: true})
	if r2.BraidsPlaced != 0 {
		t.Error("LocalTOps mode should place no braids")
	}
	if r2.ScheduleCycles >= r.ScheduleCycles {
		t.Errorf("local T ablation should be faster: %d vs %d", r2.ScheduleCycles, r.ScheduleCycles)
	}
}

func TestMagicTrafficFactorySerialization(t *testing.T) {
	// Many concurrent T gates contending for factory ports and mesh
	// corridors: the schedule must stretch beyond the critical path.
	c := circuit.New("tpar", 16)
	for q := 0; q < 16; q++ {
		c.Append(circuit.T, q)
	}
	r := mustSimulate(t, c, Policy1, Config{Distance: 5})
	if r.Ratio < 1.5 {
		t.Errorf("16 parallel T on shared ports should congest: ratio %.2f", r.Ratio)
	}
}

func TestExplicitPlacementOverride(t *testing.T) {
	c := circuit.New("two", 2)
	c.Append(circuit.CNOT, 0, 1)
	// Far-apart placement on a 1x8 strip.
	p := &layout.Placement{Rows: 1, Cols: 8, Pos: []layout.Coord{{Row: 0, Col: 0}, {Row: 0, Col: 7}}}
	far := mustSimulate(t, c, Policy1, Config{Distance: 5, Placement: p})
	near := mustSimulate(t, c, Policy1, Config{Distance: 5})
	// Braid latency is distance-independent (1-cycle extension): the
	// defining property of braids (Table 1).
	if far.ScheduleCycles != near.ScheduleCycles {
		t.Errorf("braid latency should be distance-independent: far %d vs near %d",
			far.ScheduleCycles, near.ScheduleCycles)
	}
}

func TestSimulateRejectsBadInput(t *testing.T) {
	c := circuit.New("ok", 2)
	c.Append(circuit.CNOT, 0, 1)
	if _, err := SimulateContext(context.Background(), c, Policy(42), Config{}); err == nil {
		t.Error("unknown policy should fail")
	}
	bad := circuit.New("bad", 1)
	bad.Gates = append(bad.Gates, circuit.Gate{Op: circuit.CNOT, Qubits: []int{0, 7}})
	if _, err := SimulateContext(context.Background(), bad, Policy1, Config{}); err == nil {
		t.Error("invalid circuit should fail")
	}
}

// Property: random circuits complete under every policy, schedules
// respect the critical-path lower bound, and op counts match.
func TestEngineQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		c := circuit.New("rand", n)
		for i := 0; i < 40; i++ {
			switch rng.Intn(4) {
			case 0:
				c.Append(circuit.H, rng.Intn(n))
			case 1:
				c.Append(circuit.T, rng.Intn(n))
			case 2:
				a := rng.Intn(n)
				b := (a + 1 + rng.Intn(n-1)) % n
				c.Append(circuit.CNOT, a, b)
			case 3:
				c.Append(circuit.MeasZ, rng.Intn(n))
			}
		}
		p := AllPolicies[rng.Intn(len(AllPolicies))]
		r, err := SimulateContext(context.Background(), c, p, Config{Distance: 3, Seed: seed})
		if err != nil {
			return false
		}
		return r.ScheduleCycles >= r.CriticalPathCycles &&
			r.AvgUtilization >= 0 && r.AvgUtilization <= 1 &&
			r.Ops == c.Ops()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// routeWorkShapes are the flat serve-miss circuits (GSE-40, Ising-64 and
// SQ-48, as cmd/surfbench's corpus builds them).
func routeWorkShapes() []apps.Workload {
	return []apps.Workload{
		{Name: "GSE-40", Circuit: apps.GSE(apps.GSEConfig{M: 39, Steps: 2})},
		{Name: "Ising-64", Circuit: apps.Ising(apps.IsingConfig{N: 63, Steps: 2}, false)},
		{Name: "SQ-48", Circuit: apps.SQ(apps.SQConfig{N: 20, Iters: 1})},
	}
}

// pinnedRouteWork holds {route queries that reach a path check, adaptive
// searches} per compile at d = 9, Policy 6, seed 1. Both counts are
// deterministic; a rise means the router is asking questions again that
// it could have refused.
var pinnedRouteWork = map[string][2]int64{
	"GSE-40/braid":     {6632, 156},
	"GSE-40/surgery":   {7199, 415},
	"Ising-64/braid":   {10566, 1914},
	"Ising-64/surgery": {13276, 4192},
	"SQ-48/braid":      {2401, 27},
	"SQ-48/surgery":    {2887, 97},
}

// TestRouteWorkPinned pins the router's work on the serve-miss shapes
// under braid and surgery timing.
func TestRouteWorkPinned(t *testing.T) {
	for _, w := range routeWorkShapes() {
		for _, surgery := range []bool{false, true} {
			key := w.Name + "/braid"
			if surgery {
				key = w.Name + "/surgery"
			}
			_, e, err := simulate(context.Background(), w.Circuit, Policy6, Config{Distance: 9, Seed: 1, Surgery: surgery})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got := [2]int64{e.routeQueries, e.searches}; got != pinnedRouteWork[key] {
				t.Errorf("%q: {%d, %d}, // pinned %v", key, got[0], got[1], pinnedRouteWork[key])
			}
		}
	}
}

// BenchmarkCongestedCompile compiles Ising-64, the most congested
// serve-miss shape, at d = 9, Policy 6, seed 1, and reports the
// adaptive searches each compile runs.
func BenchmarkCongestedCompile(b *testing.B) {
	c := apps.Ising(apps.IsingConfig{N: 63, Steps: 2}, false)
	for _, mode := range []struct {
		name    string
		surgery bool
	}{{"braid", false}, {"surgery", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var searches int64
			for i := 0; i < b.N; i++ {
				_, e, err := simulate(context.Background(), c, Policy6, Config{Distance: 9, Seed: 1, Surgery: mode.surgery})
				if err != nil {
					b.Fatal(err)
				}
				searches += e.searches
			}
			b.ReportMetric(float64(searches)/float64(b.N), "searches/op")
		})
	}
}
