// Package modcompile is the hierarchical incremental-compilation
// driver: it treats each circuit.Module as an independently compiled,
// independently cached unit, mirroring the source paper's module-by-
// module toolflow (ScaffCC emits hierarchical QASM; the mapper
// schedules leaf modules once and stitches call sites).
//
// The driver topologically orders the call graph, computes a content
// digest per module (canonical body serialization + resolved-target
// fingerprint + callee *interfaces* — name and width only,
// so editing a leaf's body dirties just that leaf, never its ancestors
// or sibling subtrees), compiles the dirty modules concurrently over
// the sweep worker pool, and links the module plans with a stitching
// pass (see link.go) that places module patches and routes only the
// cross-module braids.
package modcompile

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"surfcomm/internal/circuit"
	"surfcomm/internal/scerr"
	"surfcomm/internal/sweep"
)

// ModulePlan is the cached unit: the resource summary of one compiled
// module, plus an opaque backend payload (the facade stores the full
// *surfcomm.Plan there; this package never needs to look inside).
type ModulePlan struct {
	Name           string
	Digest         string // content digest the plan was compiled under
	Cycles         int64
	PhysicalQubits float64
	CommOps        int64
	Cached         bool // satisfied from the cache, not compiled
	Trivial        bool // call-only module: synthesized without a backend
	Payload        any
}

// Cache is the module-plan store the driver probes before compiling.
// Implementations must be safe for concurrent use; the driver only
// calls GetModule before the parallel compile phase and PutModule
// after it, both from the driver goroutine.
type Cache interface {
	GetModule(digest string) (ModulePlan, bool)
	PutModule(p ModulePlan)
}

// CompileFunc compiles one module's local circuit (calls lowered to
// Barrier fences) into a ModulePlan. The driver fills Name, Digest,
// and Cached afterwards; implementations populate the resource fields
// and Payload.
type CompileFunc func(ctx context.Context, c *circuit.Circuit) (ModulePlan, error)

// Config parameterizes a Run.
type Config struct {
	// Workers bounds the parallel module-compile pool (<=0 selects
	// GOMAXPROCS, matching sweep.Options).
	Workers int
	// TargetFingerprint folds every resolved-target knob that affects
	// compilation into the module digests; two targets with equal
	// fingerprints may share cached module plans.
	TargetFingerprint string
	// Distance is the code distance, used by the stitch-cycle model.
	Distance int
	// ChannelQubitsPerLink prices each reserved stitch-channel link in
	// physical qubits (tile footprint of the backend's channel unit).
	ChannelQubitsPerLink float64
	// Seed drives module-patch placement in the linker.
	Seed int64
	// Cache is optional; nil disables reuse (every module compiles).
	Cache Cache
	// Stitch optionally memoizes the linker's placement + routing pass
	// across compiles whose module graphs match (body edits keep the
	// graph, so warm recompiles skip the pass). Nil recomputes every
	// link.
	Stitch *StitchMemo
	// Compile is required.
	Compile CompileFunc
}

// Result is the linked outcome of an incremental compile.
type Result struct {
	Entry string
	// Topo is the deterministic post-order of reachable modules
	// (callees before callers; entry last).
	Topo []string
	// Plans holds one plan per reachable module.
	Plans map[string]ModulePlan
	// Hits/Misses/Trivial count cache probes for non-trivial modules
	// and synthesized call-only modules respectively.
	Hits, Misses, Trivial int
	// Compiled lists the modules that went through the backend this
	// run, in topo order — the compile-count invariant tests pin this.
	Compiled []string
	// Linked totals (see link.go for the stitch model).
	Cycles         int64
	PhysicalQubits float64
	CommOps        int64
	Stitch         StitchStats
	// LinkDigest identifies the linked artifact: it folds the target
	// fingerprint and every reachable module's content digest, so it
	// changes whenever any module body, interface, or knob changes.
	LinkDigest string
}

// Run validates the program, digests and topologically orders its
// reachable modules, compiles the dirty ones in parallel, and links.
func Run(ctx context.Context, p *circuit.Program, cfg Config) (Result, error) {
	var res Result
	if p == nil {
		return res, scerr.BadConfig("modcompile: nil program")
	}
	if cfg.Compile == nil {
		return res, scerr.BadConfig("modcompile: Config.Compile is required")
	}
	if err := p.Validate(); err != nil {
		// Validation failures (recursive call chains, arity mismatches,
		// unknown callees) are configuration errors to API callers.
		return res, scerr.BadConfig("%v", err)
	}
	res.Entry = p.Entry
	res.Topo = topoOrder(p)
	res.Plans = make(map[string]ModulePlan, len(res.Topo))

	digests := moduleDigests(p, res.Topo, cfg.TargetFingerprint)

	// Probe the cache; partition reachable modules into cached, dirty,
	// and trivial (call-only bodies never reach a backend — their cost
	// lives entirely in the callee plans and the stitch layer).
	var dirty []string
	for _, name := range res.Topo {
		m := p.Modules[name]
		d := digests[name]
		if isTrivialModule(m) {
			res.Plans[name] = ModulePlan{Name: name, Digest: d, Trivial: true}
			res.Trivial++
			continue
		}
		if cfg.Cache != nil {
			if mp, ok := cfg.Cache.GetModule(d); ok {
				mp.Name, mp.Digest, mp.Cached = name, d, true
				res.Plans[name] = mp
				res.Hits++
				continue
			}
		}
		res.Misses++
		dirty = append(dirty, name)
	}

	// Compile dirty modules concurrently. sweep.Map preserves item
	// order and fails on the lowest-index error, so parallel and serial
	// runs are bit-identical.
	if len(dirty) > 0 {
		plans, err := sweep.Map(ctx, sweep.Options{Workers: cfg.Workers},
			dirty, func(i int, name string) (ModulePlan, error) {
				mp, err := cfg.Compile(ctx, moduleCircuit(p.Modules[name]))
				if err != nil {
					return ModulePlan{}, fmt.Errorf("module %s: %w", name, err)
				}
				mp.Name, mp.Digest, mp.Cached = name, digests[name], false
				return mp, nil
			})
		if err != nil {
			return res, err
		}
		for _, mp := range plans {
			res.Plans[mp.Name] = mp
			res.Compiled = append(res.Compiled, mp.Name)
			if cfg.Cache != nil {
				cfg.Cache.PutModule(mp)
			}
		}
	}

	if err := link(p, &res, cfg); err != nil {
		return res, err
	}
	res.LinkDigest = linkDigest(p, res.Topo, digests, cfg.TargetFingerprint)
	return res, nil
}

// topoOrder returns the deterministic post-order of modules reachable
// from the entry: callees before callers, call sites visited in
// instruction order, each module emitted once. Validate has already
// rejected cycles.
func topoOrder(p *circuit.Program) []string {
	var order []string
	seen := map[string]bool{}
	var visit func(string)
	visit = func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		for _, in := range p.Modules[name].Insts {
			if in.IsCall() {
				visit(in.Callee)
			}
		}
		order = append(order, name)
	}
	visit(p.Entry)
	return order
}

// moduleDigests computes the per-module content digest: target
// fingerprint, a canonical binary serialization of the module body,
// and the sorted callee *interfaces* (name and width only — never the
// callee's content digest, which is exactly what keeps a leaf-body
// edit from dirtying its ancestors).
//
// The body is hashed in binary, not as rendered QASM: digesting runs
// on every CompileIncremental — warm recompiles are digest-bound once
// module compiles are cached, and fmt-rendering the text just to hash
// it was the hot path. Every field is delimiter- or length-separated,
// so distinct bodies cannot collide by concatenation.
func moduleDigests(p *circuit.Program, topo []string, targetFP string) map[string]string {
	out := make(map[string]string, len(topo))
	h := sha256.New()
	var buf []byte
	var names []string
	for _, name := range topo {
		m := p.Modules[name]
		buf = buf[:0]
		buf = append(buf, "module|"...)
		buf = append(buf, targetFP...)
		buf = append(buf, '|')
		buf = appendModuleBody(buf, m)
		callees := map[string]bool{}
		for _, in := range m.Insts {
			if in.IsCall() {
				callees[in.Callee] = true
			}
		}
		names = names[:0]
		for c := range callees {
			names = append(names, c)
		}
		sort.Strings(names)
		for _, c := range names {
			buf = append(buf, "callee|"...)
			buf = append(buf, c...)
			buf = append(buf, '|')
			buf = binary.AppendVarint(buf, int64(p.Modules[c].NumQubits))
			buf = append(buf, '|')
		}
		h.Reset()
		h.Write(buf)
		out[name] = hex.EncodeToString(h.Sum(nil))
	}
	return out
}

// appendModuleBody serializes a module body canonically: name, width,
// then each instruction with an unambiguous tag ('C' call with callee
// and args, 'G' gate with opcode and args), args length-prefixed.
func appendModuleBody(buf []byte, m *circuit.Module) []byte {
	buf = append(buf, m.Name...)
	buf = append(buf, 0)
	buf = binary.AppendVarint(buf, int64(m.NumQubits))
	for _, in := range m.Insts {
		if in.IsCall() {
			buf = append(buf, 'C')
			buf = append(buf, in.Callee...)
			buf = append(buf, 0)
		} else {
			buf = append(buf, 'G')
			buf = binary.AppendVarint(buf, int64(in.Op))
		}
		buf = binary.AppendVarint(buf, int64(len(in.Args)))
		for _, a := range in.Args {
			buf = binary.AppendVarint(buf, int64(a))
		}
	}
	return buf
}

// isTrivialModule reports whether a module body holds no local resource
// ops — only calls (and barriers/nops). Such modules never reach a
// backend: a braid schedule over zero gates is meaningless, and the
// work they represent already lives in their callees.
func isTrivialModule(m *circuit.Module) bool {
	for _, in := range m.Insts {
		if in.IsCall() || in.Op == circuit.Barrier || in.Op == circuit.Nop {
			continue
		}
		return false
	}
	return true
}

// moduleCircuit lowers one module body to a flat circuit: local gates
// verbatim, each call site fenced to a Barrier over its argument qubits
// (the callee executes in its own patch; from this module's schedule
// the call is an atomic region, matching Flatten's fence semantics).
func moduleCircuit(m *circuit.Module) *circuit.Circuit {
	c := circuit.New(m.Name, m.NumQubits)
	for _, in := range m.Insts {
		if in.IsCall() {
			c.Append(circuit.Barrier, in.Args...)
			continue
		}
		c.Append(in.Op, in.Args...)
	}
	return c
}

// linkDigest folds the target fingerprint and every reachable module's
// content digest in topo order — the identity of the linked plan.
func linkDigest(p *circuit.Program, topo []string, digests map[string]string, targetFP string) string {
	h := sha256.New()
	fmt.Fprintf(h, "link|%s|%s|", targetFP, p.Entry)
	for _, name := range topo {
		fmt.Fprintf(h, "%s|%s|", name, digests[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}
