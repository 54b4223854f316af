package modcompile

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"surfcomm/internal/circuit"
	"surfcomm/internal/scerr"
)

// memCache is a test double: a map plus a compile log.
type memCache struct {
	mu sync.Mutex
	m  map[string]ModulePlan
}

func newMemCache() *memCache { return &memCache{m: map[string]ModulePlan{}} }

func (c *memCache) GetModule(d string) (ModulePlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	mp, ok := c.m[d]
	return mp, ok
}

func (c *memCache) PutModule(p ModulePlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[p.Digest] = p
}

// countingCompile returns a CompileFunc whose resource numbers derive
// from the module circuit (so tests can check aggregation) and which
// appends each compiled circuit name to log.
func countingCompile(mu *sync.Mutex, log *[]string) CompileFunc {
	return func(_ context.Context, c *circuit.Circuit) (ModulePlan, error) {
		mu.Lock()
		*log = append(*log, c.Name)
		mu.Unlock()
		return ModulePlan{
			Cycles:         int64(10 * len(c.Gates)),
			PhysicalQubits: float64(100 * c.NumQubits),
			CommOps:        int64(len(c.Gates)),
		}, nil
	}
}

// diamond builds main→{left,right}→shared: the canonical diamond DAG.
func diamond(t *testing.T) *circuit.Program {
	t.Helper()
	p := circuit.NewProgram("main", 4)
	main := p.Modules["main"]
	main.Gate(circuit.H, 0)
	main.Call("left", 0, 1)
	main.Call("right", 2, 3)
	left := &circuit.Module{Name: "left", NumQubits: 2}
	left.Gate(circuit.CNOT, 0, 1)
	left.Call("shared", 1)
	right := &circuit.Module{Name: "right", NumQubits: 2}
	right.Gate(circuit.CZ, 0, 1)
	right.Call("shared", 0)
	shared := &circuit.Module{Name: "shared", NumQubits: 1}
	shared.Gate(circuit.T, 0)
	for _, m := range []*circuit.Module{left, right, shared} {
		if err := p.AddModule(m); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func runDiamond(t *testing.T, p *circuit.Program, cache Cache) (Result, []string) {
	t.Helper()
	var mu sync.Mutex
	var log []string
	res, err := Run(context.Background(), p, Config{
		Workers: 4, TargetFingerprint: "fp1", Distance: 9,
		ChannelQubitsPerLink: 2, Seed: 1, Cache: cache,
		Compile: countingCompile(&mu, &log),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, log
}

func TestDiamondCompiledOncePerModule(t *testing.T) {
	res, log := runDiamond(t, diamond(t), newMemCache())
	// shared is called from two parents but compiles exactly once.
	if len(log) != 4 {
		t.Fatalf("compiled %v, want each of 4 modules once", log)
	}
	counts := map[string]int{}
	for _, n := range log {
		counts[n]++
	}
	for _, n := range []string{"main", "left", "right", "shared"} {
		if counts[n] != 1 {
			t.Errorf("module %s compiled %d times", n, counts[n])
		}
	}
	if res.Misses != 4 || res.Hits != 0 || res.Trivial != 0 {
		t.Errorf("hits/misses/trivial = %d/%d/%d, want 0/4/0", res.Hits, res.Misses, res.Trivial)
	}
	// Topo: callees before callers, entry last.
	if res.Topo[len(res.Topo)-1] != "main" {
		t.Errorf("topo %v should end at entry", res.Topo)
	}
	if res.Topo[0] != "shared" {
		t.Errorf("topo %v should start at the deepest leaf", res.Topo)
	}
}

func TestLeafEditRecompilesOnlyLeaf(t *testing.T) {
	cache := newMemCache()
	p := diamond(t)
	if res, _ := runDiamond(t, p, cache); len(res.Compiled) != 4 {
		t.Fatalf("cold run compiled %v", res.Compiled)
	}

	// Warm rerun: everything cached, nothing compiles.
	res, log := runDiamond(t, p, cache)
	if len(log) != 0 || res.Hits != 4 || res.Misses != 0 {
		t.Fatalf("warm run compiled %v (hits %d, misses %d)", log, res.Hits, res.Misses)
	}

	// Edit the shared leaf's body: ONLY the leaf recompiles. Its
	// interface (name, width) is unchanged, so ancestors stay cached.
	edited := p.Clone()
	edited.Modules["shared"].Gate(circuit.Z, 0)
	res, log = runDiamond(t, edited, cache)
	if !reflect.DeepEqual(log, []string{"shared"}) {
		t.Fatalf("leaf edit recompiled %v, want [shared]", log)
	}
	if res.Hits != 3 || res.Misses != 1 {
		t.Fatalf("leaf edit: hits %d misses %d, want 3/1", res.Hits, res.Misses)
	}
	if !reflect.DeepEqual(res.Compiled, []string{"shared"}) {
		t.Fatalf("Compiled = %v, want [shared]", res.Compiled)
	}

	// But the linked artifact identity must change.
	orig, _ := runDiamond(t, p, cache)
	if orig.LinkDigest == res.LinkDigest {
		t.Error("leaf edit should change LinkDigest")
	}
}

func TestInterfaceChangeDirtiesCallers(t *testing.T) {
	cache := newMemCache()
	p := diamond(t)
	runDiamond(t, p, cache)

	// Widening shared's interface forces its callers dirty too (their
	// digests fold the callee interface), but not the entry, whose
	// callees' interfaces are unchanged.
	edited := p.Clone()
	edited.Modules["shared"].NumQubits = 2
	edited.Modules["shared"].Gate(circuit.CNOT, 0, 1)
	edited.Modules["left"].Insts[1] = circuit.Inst{Callee: "shared", Args: []int{1, 0}}
	edited.Modules["right"].Insts[1] = circuit.Inst{Callee: "shared", Args: []int{0, 1}}
	_, log := runDiamond(t, edited, cache)
	counts := map[string]int{}
	for _, n := range log {
		counts[n]++
	}
	if counts["shared"] != 1 || counts["left"] != 1 || counts["right"] != 1 || counts["main"] != 0 {
		t.Fatalf("interface change recompiled %v, want shared+left+right only", log)
	}
}

func TestRecursionRejectedWithBadConfig(t *testing.T) {
	p := circuit.NewProgram("a", 1)
	p.Modules["a"].Call("b", 0)
	b := &circuit.Module{Name: "b", NumQubits: 1}
	b.Call("a", 0)
	if err := p.AddModule(b); err != nil {
		t.Fatal(err)
	}
	_, err := Run(context.Background(), p, Config{
		Compile: func(context.Context, *circuit.Circuit) (ModulePlan, error) {
			return ModulePlan{}, nil
		},
	})
	if !errors.Is(err, scerr.ErrBadConfig) {
		t.Fatalf("recursive program: got %v, want ErrBadConfig", err)
	}
}

func TestTrivialCallOnlyModule(t *testing.T) {
	p := circuit.NewProgram("main", 2)
	p.Modules["main"].Call("leaf", 0)
	p.Modules["main"].Call("leaf", 1)
	leaf := &circuit.Module{Name: "leaf", NumQubits: 1}
	leaf.Gate(circuit.H, 0)
	if err := p.AddModule(leaf); err != nil {
		t.Fatal(err)
	}
	res, log := runDiamond(t, p, newMemCache())
	if !reflect.DeepEqual(log, []string{"leaf"}) {
		t.Fatalf("compiled %v, want only the leaf (main is call-only)", log)
	}
	if res.Trivial != 1 {
		t.Errorf("Trivial = %d, want 1", res.Trivial)
	}
	if res.Stitch.CallExecutions != 2 || res.Stitch.CrossBraids != 2 {
		t.Errorf("stitch executions/braids = %d/%d, want 2/2",
			res.Stitch.CallExecutions, res.Stitch.CrossBraids)
	}
	// leaf plan: 1 gate → 10 cycles, ×2 executions + 9×2 stitch cycles.
	if want := int64(2*10 + 9*2); res.Cycles != want {
		t.Errorf("Cycles = %d, want %d", res.Cycles, want)
	}
}

func TestMultiplicityThroughDeepChain(t *testing.T) {
	// main calls mid twice; mid calls leaf twice → leaf executes 4×.
	p := circuit.NewProgram("main", 2)
	p.Modules["main"].Gate(circuit.H, 0)
	p.Modules["main"].Call("mid", 0, 1)
	p.Modules["main"].Call("mid", 1, 0)
	mid := &circuit.Module{Name: "mid", NumQubits: 2}
	mid.Gate(circuit.X, 0)
	mid.Call("leaf", 0)
	mid.Call("leaf", 1)
	leaf := &circuit.Module{Name: "leaf", NumQubits: 1}
	leaf.Gate(circuit.T, 0)
	for _, m := range []*circuit.Module{mid, leaf} {
		if err := p.AddModule(m); err != nil {
			t.Fatal(err)
		}
	}
	res, _ := runDiamond(t, p, newMemCache())
	// CallExecutions: 2 (main→mid) + 2×2 (mid→leaf) = 6.
	if res.Stitch.CallExecutions != 6 {
		t.Fatalf("CallExecutions = %d, want 6", res.Stitch.CallExecutions)
	}
	// Cycles: main 2 gates? (H only → 1 gate =10) + mid ×2 (1 gate + 2
	// barriers; barriers count as gates in len(Gates))… derive instead:
	// leaf executes 4×, each 10 cycles → the leaf term alone is 40.
	leafOnly := res.Plans["leaf"].Cycles * 4
	if leafOnly != 40 {
		t.Fatalf("leaf term %d, want 40", leafOnly)
	}
	if res.Stitch.StitchCycles != 9*6 {
		t.Fatalf("StitchCycles = %d, want 54", res.Stitch.StitchCycles)
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	var base Result
	for i, workers := range []int{1, 2, 8} {
		var mu sync.Mutex
		var log []string
		res, err := Run(context.Background(), diamond(t), Config{
			Workers: workers, TargetFingerprint: "fp", Distance: 7,
			ChannelQubitsPerLink: 3, Seed: 42,
			Compile: countingCompile(&mu, &log),
		})
		if err != nil {
			t.Fatal(err)
		}
		res.Plans = nil // map iteration aside, compare the scalar surface
		if i == 0 {
			base = res
			continue
		}
		if !reflect.DeepEqual(base, res) {
			t.Fatalf("workers=%d diverges:\n%+v\nvs\n%+v", workers, base, res)
		}
	}
}

func TestStitchLayerRoutesCrossEdges(t *testing.T) {
	res, _ := runDiamond(t, diamond(t), newMemCache())
	// 4 distinct call edges (main→left, main→right, left→shared,
	// right→shared) must reserve channel links in ≥1 phase.
	if res.Stitch.Phases < 1 {
		t.Errorf("Phases = %d, want >= 1", res.Stitch.Phases)
	}
	if res.Stitch.RouteLinks < 4 {
		t.Errorf("RouteLinks = %d, want >= 4 (one per edge minimum)", res.Stitch.RouteLinks)
	}
	// Channel footprint priced into physical qubits.
	var patches float64
	for _, mp := range res.Plans {
		patches += mp.PhysicalQubits
	}
	if want := patches + float64(res.Stitch.RouteLinks)*2; res.PhysicalQubits != want {
		t.Errorf("PhysicalQubits = %g, want %g", res.PhysicalQubits, want)
	}
}

// TestMultiplicityOverflowRejected: a 64-level chain of doubled calls
// executes its leaf 2^64 times; the linker refuses it as a
// configuration error instead of wrapping its int64 totals.
func TestMultiplicityOverflowRejected(t *testing.T) {
	name := func(k int) string { return fmt.Sprintf("m%d", k) }
	p := &circuit.Program{Modules: map[string]*circuit.Module{}, Entry: name(64)}
	for k := 64; k > 0; k-- {
		m := &circuit.Module{Name: name(k), NumQubits: 1}
		m.Call(name(k-1), 0)
		m.Call(name(k-1), 0)
		p.Modules[m.Name] = m
	}
	leaf := &circuit.Module{Name: name(0), NumQubits: 1}
	leaf.Gate(circuit.T, 0)
	p.Modules[leaf.Name] = leaf
	var mu sync.Mutex
	var log []string
	_, err := Run(context.Background(), p, Config{Distance: 9, Compile: countingCompile(&mu, &log)})
	if !errors.Is(err, scerr.ErrBadConfig) || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("2^64-execution chain: got %v, want an ErrBadConfig overflow", err)
	}
}
