package surfcomm

import (
	"context"
	"encoding/json"
	"errors"
	"hash/fnv"
	"reflect"
	"testing"
)

// planFNV fingerprints a plan's full JSON encoding — the byte-identity
// check the single-module parity contract is pinned with.
func planFNV(t *testing.T, p Plan) uint64 {
	t.Helper()
	enc, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(enc)
	return h.Sum64()
}

func modularToolchain(t *testing.T, opts ...ToolchainOption) *Toolchain {
	t.Helper()
	tc, err := NewToolchain(append([]ToolchainOption{WithModular(), WithWorkers(4)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

// TestSingleModuleParityFNV pins the acceptance contract: a program
// whose entry makes no calls compiles through CompileIncremental to a
// plan byte-identical to the flat pipeline's, on every backend.
func TestSingleModuleParityFNV(t *testing.T) {
	tc := modularToolchain(t)
	p := NewProgram("solo", 6)
	m := p.Modules["solo"]
	for q := 0; q < 6; q++ {
		m.Gate(OpH, q)
	}
	for q := 0; q+1 < 6; q++ {
		m.Gate(OpCNOT, q, q+1)
	}
	m.Gate(OpT, 3)
	flat, err := p.Flatten(InlineAll)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range Backends() {
		want, err := tc.Compile(context.Background(), b, flat)
		if err != nil {
			t.Fatalf("%s flat: %v", b.Name(), err)
		}
		got, err := tc.CompileIncremental(context.Background(), b, p)
		if err != nil {
			t.Fatalf("%s incremental: %v", b.Name(), err)
		}
		if got.Modular != nil {
			t.Errorf("%s: single-module plan should leave Modular nil", b.Name())
		}
		if wf, gf := planFNV(t, want), planFNV(t, got); wf != gf {
			t.Errorf("%s: FNV parity broken: flat %x vs incremental %x", b.Name(), wf, gf)
		}
	}
}

// TestLeafEditCompileCount pins the incremental acceptance criterion:
// editing one leaf of an N-module pipeline recompiles exactly that
// module; everything else is served from the module cache.
func TestLeafEditCompileCount(t *testing.T) {
	const n = 8
	tc := modularToolchain(t)
	p, err := PipelineProgram(n)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := tc.CompileIncremental(context.Background(), BraidBackend{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Modular == nil {
		t.Fatal("multi-module plan missing Modular provenance")
	}
	if got := len(cold.Modular.Compiled); got != n+1 { // n stages + entry
		t.Fatalf("cold compile built %d modules (%v), want %d", got, cold.Modular.Compiled, n+1)
	}

	warm, err := tc.CompileIncremental(context.Background(), BraidBackend{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Modular.Compiled) != 0 || warm.Modular.Hits != n+1 {
		t.Fatalf("warm recompile built %v (hits %d), want all cached", warm.Modular.Compiled, warm.Modular.Hits)
	}
	if planFNV(t, cold) != planFNV(t, warm) {
		// Cached flags differ module-by-module, so compare resources.
		if cold.Cycles != warm.Cycles || cold.PhysicalQubits != warm.PhysicalQubits || cold.CommOps != warm.CommOps {
			t.Fatal("warm recompile changed plan resources")
		}
	}

	edited, err := MutateModule(p, "stagec", 1)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := tc.CompileIncremental(context.Background(), BraidBackend{}, edited)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inc.Modular.Compiled, []string{"stagec"}) {
		t.Fatalf("leaf edit recompiled %v, want [stagec]", inc.Modular.Compiled)
	}
	if inc.Modular.Hits != n || inc.Modular.Misses != 1 {
		t.Fatalf("leaf edit hits/misses = %d/%d, want %d/1", inc.Modular.Hits, inc.Modular.Misses, n)
	}
	if inc.Modular.LinkDigest == cold.Modular.LinkDigest {
		t.Error("edit should change the link digest")
	}
}

// TestRecursiveProgramErrBadConfig: recursive call chains are rejected
// with the API's standard configuration error.
func TestRecursiveProgramErrBadConfig(t *testing.T) {
	tc := modularToolchain(t)
	p := NewProgram("a", 1)
	p.Modules["a"].Call("b", 0)
	b := &Module{Name: "b", NumQubits: 1}
	b.Call("a", 0)
	if err := p.AddModule(b); err != nil {
		t.Fatal(err)
	}
	_, err := tc.CompileIncremental(context.Background(), BraidBackend{}, p)
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("recursive program: got %v, want ErrBadConfig", err)
	}
}

// TestDiamondDAGCompiledOncePerModule: a module reachable through two
// parents compiles once and links everywhere.
func TestDiamondDAGCompiledOncePerModule(t *testing.T) {
	tc := modularToolchain(t)
	p := NewProgram("main", 4)
	main := p.Modules["main"]
	main.Gate(OpH, 0)
	main.Call("left", 0, 1)
	main.Call("right", 2, 3)
	for _, spec := range []struct{ name string }{{"left"}, {"right"}} {
		m := &Module{Name: spec.name, NumQubits: 2}
		m.Gate(OpCNOT, 0, 1)
		if spec.name == "left" {
			m.Gate(OpT, 0)
		}
		m.Call("shared", 1)
		if err := p.AddModule(m); err != nil {
			t.Fatal(err)
		}
	}
	shared := &Module{Name: "shared", NumQubits: 1}
	shared.Gate(OpT, 0)
	if err := p.AddModule(shared); err != nil {
		t.Fatal(err)
	}

	plan, err := tc.CompileIncremental(context.Background(), BraidBackend{}, p)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, name := range plan.Modular.Compiled {
		counts[name]++
	}
	for _, name := range []string{"main", "left", "right", "shared"} {
		if counts[name] != 1 {
			t.Errorf("module %s compiled %d times, want 1", name, counts[name])
		}
	}
	if len(plan.Modular.Modules) != 4 {
		t.Errorf("linked %d modules, want 4", len(plan.Modular.Modules))
	}
}

// TestCallSiteAliasing covers the qubit-map edge cases across Call
// sites: one cached module plan serves call sites with different
// bindings, and a call aliasing one caller qubit to two formals is
// rejected up front.
func TestCallSiteAliasing(t *testing.T) {
	tc := modularToolchain(t)

	// Same module, two call sites, different (reversed) bindings: one
	// compile, binding-independent digest, both executions linked.
	p := NewProgram("main", 4)
	main := p.Modules["main"]
	main.Gate(OpH, 0)
	main.Call("kern", 0, 1)
	main.Call("kern", 3, 2) // reversed, disjoint window
	kern := &Module{Name: "kern", NumQubits: 2}
	kern.Gate(OpCNOT, 0, 1)
	kern.Gate(OpT, 1)
	if err := p.AddModule(kern); err != nil {
		t.Fatal(err)
	}
	plan, err := tc.CompileIncremental(context.Background(), BraidBackend{}, p)
	if err != nil {
		t.Fatal(err)
	}
	kc := 0
	for _, name := range plan.Modular.Compiled {
		if name == "kern" {
			kc++
		}
	}
	if kc != 1 {
		t.Fatalf("kern compiled %d times across 2 differently-bound call sites, want 1", kc)
	}
	if plan.Modular.CallExecutions != 2 || plan.Modular.CrossBraids != 4 {
		t.Errorf("executions/braids = %d/%d, want 2/4",
			plan.Modular.CallExecutions, plan.Modular.CrossBraids)
	}

	// Aliasing one caller qubit into two formals is invalid.
	bad := NewProgram("main", 2)
	bad.Modules["main"].Call("kern2", 1, 1)
	k2 := &Module{Name: "kern2", NumQubits: 2}
	k2.Gate(OpCNOT, 0, 1)
	if err := bad.AddModule(k2); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.CompileIncremental(context.Background(), BraidBackend{}, bad); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("aliased call args: got %v, want ErrBadConfig", err)
	}
}

// TestCompileIncrementalDeterministic: plans are bit-identical across
// worker counts and cache states (modulo provenance flags).
func TestCompileIncrementalDeterministic(t *testing.T) {
	p, err := PipelineProgram(4)
	if err != nil {
		t.Fatal(err)
	}
	var base Plan
	for i, workers := range []int{1, 4} {
		tc := modularToolchain(t, WithWorkers(workers))
		plan, err := tc.CompileIncremental(context.Background(), BraidBackend{}, p)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = plan
			continue
		}
		if base.Cycles != plan.Cycles || base.PhysicalQubits != plan.PhysicalQubits ||
			base.CommOps != plan.CommOps || base.Modular.LinkDigest != plan.Modular.LinkDigest {
			t.Fatalf("workers=%d diverges: %+v vs %+v", workers, base.Modular, plan.Modular)
		}
	}
}

// TestCloneWithModuleCacheShares: two toolchain clones over one cache
// see each other's module plans.
func TestCloneWithModuleCacheShares(t *testing.T) {
	tc := modularToolchain(t)
	p, err := PipelineProgram(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.CompileIncremental(context.Background(), BraidBackend{}, p); err != nil {
		t.Fatal(err)
	}
	clone := tc.CloneWithModuleCache(tc.modCache)
	plan, err := clone.CompileIncremental(context.Background(), BraidBackend{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Modular.Compiled) != 0 {
		t.Fatalf("clone recompiled %v, want full cache reuse", plan.Modular.Compiled)
	}
	// And a nil cache disables reuse entirely.
	cold := tc.CloneWithModuleCache(nil)
	plan, err = cold.CompileIncremental(context.Background(), BraidBackend{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Modular.Hits != 0 || len(plan.Modular.Compiled) != 4 {
		t.Fatalf("nil cache: hits %d compiled %v, want 0 hits / 4 compiles",
			plan.Modular.Hits, plan.Modular.Compiled)
	}
}

// TestModuleDigestsPinned pins the hex of one module digest and one
// link digest. Module plans persist under their digests, so drift in
// the target fingerprint cold-starts every persisted module store.
func TestModuleDigestsPinned(t *testing.T) {
	tc := modularToolchain(t, WithDistance(5), WithSeed(1))
	p, err := PipelineProgram(3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := tc.CompileIncremental(context.Background(), BraidBackend{}, p)
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantModule = "b661165ec288f51d3bdf0601da18847f5d135751cfa7409b76a650f78c6f640f"
		wantLink   = "3063192b4bd5b33712548207120d920e583d014bf6027145ca74e392692dc4d4"
	)
	if got := plan.Modular.Modules[0].Digest; got != wantModule {
		t.Errorf("module %s digest = %s, want %s", plan.Modular.Modules[0].Name, got, wantModule)
	}
	if got := plan.Modular.LinkDigest; got != wantLink {
		t.Errorf("link digest = %s, want %s", got, wantLink)
	}
}
