package surfcomm

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"

	"surfcomm/internal/apps"
	"surfcomm/internal/circuit"
	"surfcomm/internal/modcompile"
	"surfcomm/internal/scerr"
	"surfcomm/internal/surface"
)

// ModuleCache stores compiled module plans keyed by their content
// digest. Implementations must be safe for concurrent use; the driver
// probes it before the parallel module-compile phase and fills it
// after. The serving layer backs it with its LRU + disk store; the
// WithModular option installs an in-process map for library callers.
type ModuleCache interface {
	GetModule(digest string) (Plan, bool)
	PutModule(digest string, p Plan)
}

// memoryModuleCache is the WithModular default: an unbounded
// process-local map. Module plans are small (no recorded schedules),
// so a map suffices for interactive edit-recompile loops; serving
// deployments use the service's weighted LRU instead.
type memoryModuleCache struct {
	mu sync.Mutex
	m  map[string]Plan
}

func newMemoryModuleCache() *memoryModuleCache {
	return &memoryModuleCache{m: map[string]Plan{}}
}

func (c *memoryModuleCache) GetModule(digest string) (Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.m[digest]
	return p, ok
}

func (c *memoryModuleCache) PutModule(digest string, p Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[digest] = p
}

// WithModular arms the toolchain's hierarchical compile path with a
// fresh in-process module cache, so successive CompileIncremental
// calls on edited variants of a program reuse every unchanged module.
// Serving layers that need bounded or persistent caching install their
// own store via CloneWithModuleCache instead.
func WithModular() ToolchainOption {
	return func(tc *Toolchain) error {
		tc.modCache = newMemoryModuleCache()
		return nil
	}
}

// CloneWithModuleCache returns a copy of the toolchain whose
// CompileIncremental uses mc as the module-plan store, sharing every
// other setting. A nil mc disables module reuse (every module
// compiles each call).
func (tc *Toolchain) CloneWithModuleCache(mc ModuleCache) *Toolchain {
	cp := *tc
	cp.modCache = mc
	return &cp
}

// ModuleSummary is one module's linked outcome inside a ModularResult.
type ModuleSummary struct {
	Name   string `json:"name"`
	Digest string `json:"digest"`
	Cycles int64  `json:"cycles"`
	// Cached marks a plan served from the module cache; Trivial marks a
	// call-only module synthesized without a backend compile.
	Cached  bool `json:"cached,omitempty"`
	Trivial bool `json:"trivial,omitempty"`
}

// ModularResult is the hierarchical compile's provenance: which
// modules the program linked from, which were reused versus recompiled,
// and what the stitching pass cost. It rides on Plan.Modular; flat and
// fast-path compiles leave it nil.
type ModularResult struct {
	// Entry is the program's entry module.
	Entry string `json:"entry"`
	// Modules lists every reachable module in topological order
	// (callees before callers, entry last).
	Modules []ModuleSummary `json:"modules"`
	// Hits/Misses count module-cache probes; Trivial counts call-only
	// modules that never reach a backend.
	Hits    int `json:"hits"`
	Misses  int `json:"misses"`
	Trivial int `json:"trivial"`
	// Compiled names the modules that went through the backend this
	// call, in topological order.
	Compiled []string `json:"compiled,omitempty"`
	// LinkDigest identifies the linked artifact (folds every module's
	// content digest plus the target fingerprint).
	LinkDigest string `json:"link_digest"`
	// Stitch-layer diagnostics: routing phases the cross-module
	// channels packed into, mesh links they reserved, dynamic call
	// executions and per-qubit cross-module braids, and the schedule
	// cycles the call fences cost.
	StitchPhases     int   `json:"stitch_phases"`
	StitchRouteLinks int   `json:"stitch_route_links"`
	CallExecutions   int64 `json:"call_executions"`
	CrossBraids      int64 `json:"cross_braids"`
	StitchCycles     int64 `json:"stitch_cycles"`
}

// CompileIncremental lowers a hierarchical program onto one backend,
// compiling each module as an independently cached unit and linking
// the module plans with the stitching pass (module patches placed by
// the partition/layout optimizers, cross-module braids routed on a
// channel mesh). The returned Plan's Modular field records per-module
// provenance — cache hits, recompiled modules, stitch costs.
//
// Programs whose entry makes no calls take the monolithic fast path
// (flatten + Compile) and return a Plan byte-identical to the flat
// pipeline's, with Modular nil — single-module programs cost nothing
// for opting in.
//
// Module plans are reused through the toolchain's module cache (see
// WithModular / CloneWithModuleCache). A module's digest covers its
// canonical body, the resolved target, and its callees' *interfaces*
// (name and width only), so editing one leaf module recompiles only
// that leaf plus the cheap stitch layer — ancestors and sibling
// subtrees are served from cache.
func (tc *Toolchain) CompileIncremental(ctx context.Context, b Backend, p *Program, override ...func(*Target)) (Plan, error) {
	if b == nil {
		return Plan{}, scerr.BadConfig("toolchain: nil backend")
	}
	if p == nil {
		return Plan{}, scerr.BadConfig("toolchain: nil program")
	}
	if err := p.Validate(); err != nil {
		return Plan{}, scerr.BadConfig("%v", err)
	}
	if p.CallTreeHeight() == 0 {
		// Monolithic fast path: no calls to stitch. Flatten is the
		// identity on a single flat module, so the plan — and its
		// digest — matches the pre-modular pipeline exactly.
		flat, err := p.Flatten(circuit.InlineAll)
		if err != nil {
			return Plan{}, scerr.BadConfig("%v", err)
		}
		return tc.Compile(ctx, b, flat, override...)
	}

	target := tc.resolveTarget(override)
	// Module compiles resolve their own placements: a program-level
	// placement override describes entry-module qubits, which don't
	// exist inside a module patch.
	modTarget := target
	modTarget.Placement = nil

	// The fingerprint folds every plan-affecting knob of the module
	// target, so module digests separate by backend and target.
	h := sha256.New()
	modTarget.WriteFingerprint(h, b.Name())
	resolved := target.withDefaults()
	channel := float64(surface.DoubleDefectTileQubits(resolved.Distance))
	if b.Name() == "planar" {
		channel = float64(surface.PlanarTileQubits(resolved.Distance))
	}

	res, err := modcompile.Run(ctx, p, modcompile.Config{
		Workers:              tc.workers,
		TargetFingerprint:    hex.EncodeToString(h.Sum(nil)),
		Distance:             resolved.Distance,
		ChannelQubitsPerLink: channel,
		Seed:                 tc.seed,
		Cache:                moduleCacheAdapter{tc.modCache},
		Stitch:               tc.stitchMemo,
		Compile: func(ctx context.Context, c *Circuit) (modcompile.ModulePlan, error) {
			t := modTarget
			plan, err := b.Compile(ctx, c, &t)
			if err != nil {
				return modcompile.ModulePlan{}, err
			}
			return modulePlan(plan), nil
		},
	})
	if err != nil {
		return Plan{}, fmt.Errorf("toolchain: %s: %w", b.Name(), err)
	}

	mr := &ModularResult{
		Entry:            res.Entry,
		Hits:             res.Hits,
		Misses:           res.Misses,
		Trivial:          res.Trivial,
		Compiled:         res.Compiled,
		LinkDigest:       res.LinkDigest,
		StitchPhases:     res.Stitch.Phases,
		StitchRouteLinks: res.Stitch.RouteLinks,
		CallExecutions:   res.Stitch.CallExecutions,
		CrossBraids:      res.Stitch.CrossBraids,
		StitchCycles:     res.Stitch.StitchCycles,
	}
	for _, name := range res.Topo {
		mp := res.Plans[name]
		mr.Modules = append(mr.Modules, ModuleSummary{
			Name: mp.Name, Digest: mp.Digest, Cycles: mp.Cycles,
			Cached: mp.Cached, Trivial: mp.Trivial,
		})
	}
	plan := Plan{
		Backend:        b.Name(),
		Circuit:        p.Entry,
		Distance:       resolved.Distance,
		Seed:           modTarget.Seed,
		Device:         target.Device.String(),
		Cycles:         res.Cycles,
		Seconds:        float64(res.Cycles) * resolved.Technology.SyndromeCycleTime(),
		PhysicalQubits: res.PhysicalQubits,
		CommOps:        res.CommOps,
		Modular:        mr,
	}
	tc.emit(Event{Stage: "compile", Backend: b.Name(), Cell: p.Entry, Total: 1})
	return plan, nil
}

// modulePlan is the linker's view of one compiled module: the metrics
// it stitches with, and the Plan itself as the opaque payload.
func modulePlan(p Plan) modcompile.ModulePlan {
	return modcompile.ModulePlan{Cycles: p.Cycles, PhysicalQubits: p.PhysicalQubits, CommOps: p.CommOps, Payload: p}
}

// moduleCacheAdapter bridges the public ModuleCache (Plan values) to
// the driver's payload-opaque cache interface. A nil inner cache
// disables reuse.
type moduleCacheAdapter struct{ mc ModuleCache }

func (a moduleCacheAdapter) GetModule(digest string) (modcompile.ModulePlan, bool) {
	if a.mc == nil {
		return modcompile.ModulePlan{}, false
	}
	plan, ok := a.mc.GetModule(digest)
	if !ok {
		return modcompile.ModulePlan{}, false
	}
	return modulePlan(plan), true
}

func (a moduleCacheAdapter) PutModule(mp modcompile.ModulePlan) {
	if a.mc == nil {
		return
	}
	if plan, ok := mp.Payload.(Plan); ok {
		a.mc.PutModule(mp.Digest, plan)
	}
}

// --- Hierarchical QASM interchange ---

// WriteProgramQASM serializes a hierarchical program in the module-
// extended QASM dialect (entry/module/call directives). Emission is
// canonical: equal programs serialize to equal bytes.
func WriteProgramQASM(w io.Writer, p *Program) error { return circuit.WriteProgramQASM(w, p) }

// ReadProgramQASM parses the module-extended QASM dialect, validating
// the program (calls resolve, arities match, no recursion).
func ReadProgramQASM(r io.Reader) (*Program, error) { return circuit.ReadProgramQASM(r) }

// ProgramQASMString renders a program as a canonical QASM string.
func ProgramQASMString(p *Program) string { return circuit.ProgramQASMString(p) }

// LooksHierarchicalQASM reports whether QASM text uses the module-
// extended dialect (vs the flat dialect).
func LooksHierarchicalQASM(text string) bool { return circuit.LooksHierarchicalQASM(text) }

// NewProgram returns a program with a single empty entry module over n
// qubits.
func NewProgram(entry string, n int) *Program { return circuit.NewProgram(entry, n) }

// Module is one reusable subcircuit of a hierarchical Program.
type Module = circuit.Module

// ModuleInst is one instruction inside a Module: a local gate or a
// call binding qubits to another module's formals.
type ModuleInst = circuit.Inst

// PipelineProgram builds the n-stage hierarchical pipeline workload:
// distinct-bodied 8-qubit stage modules called over overlapping qubit
// windows — the corpus the incremental-compilation benchmarks edit one
// module of and recompile.
func PipelineProgram(n int) (*Program, error) { return apps.PipelineProgram(n) }

// MutateModule returns a deep copy of the program with one module's
// body extended by a deterministic, variant-keyed edit (its interface
// is unchanged, so only that module's digest goes dirty).
func MutateModule(p *Program, name string, variant int) (*Program, error) {
	return apps.MutateModule(p, name, variant)
}
