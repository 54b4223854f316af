package modcompile

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"surfcomm/internal/circuit"
	"surfcomm/internal/layout"
	"surfcomm/internal/mesh"
	"surfcomm/internal/partition"
	"surfcomm/internal/scerr"
)

// StitchStats summarizes the linker's cross-module stitching pass.
type StitchStats struct {
	// Phases is the number of routing rounds the distinct call edges
	// packed into: edges whose channels collide (shared patches or
	// corridors) serialize into later phases.
	Phases int
	// RouteLinks is the total mesh links reserved across all phases —
	// the stitch layer's physical channel footprint.
	RouteLinks int
	// CrossBraids counts dynamic cross-module braid operations: one per
	// bound qubit per call execution.
	CrossBraids int64
	// CallExecutions is the dynamic number of call-site executions.
	CallExecutions int64
	// StitchCycles is the linked schedule overhead of the call fences:
	// distance cycles per call execution (the merge/split boundary a
	// call crossing costs, matching Flatten's barrier semantics).
	StitchCycles int64
}

// link places module patches, routes cross-module braids, and fills the
// Result totals from the per-module plans plus the stitch layer.
//
// The cost model composes per-module schedules serially along call
// executions (Flatten fences calls into atomic regions, so the
// monolithic pipeline serializes them the same way): total cycles are
// Σ multiplicity×module-cycles plus distance cycles per call execution.
// The placement/routing pass prices the *spatial* side — how many mesh
// links the cross-module channels occupy and how many phases they pack
// into — and contributes the channel footprint to physical qubits.
func link(p *circuit.Program, res *Result, cfg Config) error {
	// Static multiplicity of each module: times it executes per run of
	// the entry. Reverse topo order visits callers before callees.
	// Multiplicities grow geometrically with call nesting, so every sum
	// and product below is overflow-checked.
	var ov overflow
	mult := make(map[string]int64, len(res.Topo))
	mult[p.Entry] = 1
	for i := len(res.Topo) - 1; i >= 0; i-- {
		caller := res.Topo[i]
		for _, in := range p.Modules[caller].Insts {
			if in.IsCall() {
				mult[in.Callee] = ov.add(mult[in.Callee], mult[caller])
				res.Stitch.CallExecutions = ov.add(res.Stitch.CallExecutions, mult[caller])
				res.Stitch.CrossBraids = ov.add(res.Stitch.CrossBraids, ov.mul(int64(len(in.Args)), mult[caller]))
			}
		}
	}

	// Aggregate totals: each distinct module occupies one patch (its
	// compiled footprint counts once); its schedule repeats per
	// execution.
	for _, name := range res.Topo {
		mp := res.Plans[name]
		res.Cycles = ov.add(res.Cycles, ov.mul(mult[name], mp.Cycles))
		res.CommOps = ov.add(res.CommOps, ov.mul(mult[name], mp.CommOps))
		res.PhysicalQubits += mp.PhysicalQubits
	}
	res.Stitch.StitchCycles = ov.mul(int64(cfg.Distance), res.Stitch.CallExecutions)
	res.Cycles = ov.add(res.Cycles, res.Stitch.StitchCycles)
	res.CommOps = ov.add(res.CommOps, res.Stitch.CrossBraids)
	if ov {
		return scerr.BadConfig("modcompile: program %q: call multiplicities overflow int64", p.Entry)
	}

	if len(res.Topo) < 2 || res.Stitch.CallExecutions == 0 {
		return nil // nothing to stitch
	}

	phases, links, err := routeStitchChannels(p, res.Topo, mult, cfg.Seed, cfg.Stitch)
	if err != nil {
		return err
	}
	res.Stitch.Phases = phases
	res.Stitch.RouteLinks = links
	res.PhysicalQubits += float64(links) * cfg.ChannelQubitsPerLink
	return nil
}

// overflow latches when checked int64 arithmetic on non-negative
// operands overflows; results computed after that are meaningless.
type overflow bool

func (o *overflow) add(a, b int64) int64 {
	*o = *o || a > math.MaxInt64-b
	return a + b
}

func (o *overflow) mul(a, b int64) int64 {
	*o = *o || (a != 0 && b > math.MaxInt64/a)
	return a * b
}

// StitchMemo caches the outcome of the linker's placement + routing
// pass, keyed by everything that determines it: the seed, the module
// set, and the weighted call-edge list. Module *bodies* are not inputs
// — a leaf edit leaves the module graph unchanged, so the edited
// program's stitch layout is a memo hit and the warm recompile pays
// only the dirty module's backend compile. Entries are two ints each;
// one accumulates per distinct program shape, so the memo needs no
// eviction. Safe for concurrent use.
type StitchMemo struct {
	mu sync.Mutex
	m  map[string]stitchRoute
	// hits counts memo hits (observability; monotone).
	hits uint64
}

type stitchRoute struct{ phases, links int }

// NewStitchMemo returns an empty memo.
func NewStitchMemo() *StitchMemo { return &StitchMemo{m: map[string]stitchRoute{}} }

// Hits reports how many placement+routing passes the memo has saved.
func (s *StitchMemo) Hits() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits
}

func (s *StitchMemo) get(key string) (stitchRoute, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.m[key]
	if ok {
		s.hits++
	}
	return r, ok
}

func (s *StitchMemo) put(key string, r stitchRoute) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = r
}

// routeStitchChannels places one patch per module on a near-square
// grid (communication-weighted, via the multilevel bisector) and
// routes one channel per distinct caller→callee edge on a super-mesh
// with the braid engine's stamp-scratch BFS. Colliding channels spill
// into later phases; a channel that cannot route even on an empty mesh
// is a genuine topology failure.
func routeStitchChannels(p *circuit.Program, topo []string, mult map[string]int64, seed int64, memo *StitchMemo) (phases, links int, err error) {
	idx := make(map[string]int, len(topo))
	for i, name := range topo {
		idx[name] = i
	}

	// Module graph: edge weight = dynamic qubit traffic between the two
	// patches, driving the placer to keep chatty modules adjacent.
	type edge struct{ u, v int }
	weight := map[edge]int64{}
	var order []edge // deterministic routing order: reverse topo, call-site order
	for i := len(topo) - 1; i >= 0; i-- {
		caller := topo[i]
		for _, in := range p.Modules[caller].Insts {
			if !in.IsCall() {
				continue
			}
			e := edge{idx[caller], idx[in.Callee]}
			if _, seen := weight[e]; !seen {
				order = append(order, e)
			}
			weight[e] += int64(len(in.Args)) * mult[caller]
		}
	}
	// The graph (not the bodies behind it) plus the seed fully determine
	// the placement and routing below — probe the memo before paying for
	// either. The key folds the module names so renames miss.
	var key string
	if memo != nil {
		h := sha256.New()
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(seed))
		h.Write(buf[:])
		for _, name := range topo {
			h.Write([]byte(name))
			h.Write([]byte{0})
		}
		for _, e := range order {
			binary.LittleEndian.PutUint64(buf[:], uint64(e.u)<<32|uint64(e.v))
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], uint64(weight[e]))
			h.Write(buf[:])
		}
		key = string(h.Sum(nil))
		if r, ok := memo.get(key); ok {
			return r.phases, r.links, nil
		}
	}

	g := partition.NewGraph(len(topo))
	for _, e := range order {
		w := weight[e]
		if w > 1<<30 {
			w = 1 << 30
		}
		if err := g.AddEdge(e.u, e.v, int(w)); err != nil {
			return 0, 0, err
		}
	}

	pl, err := layout.Optimized(g, seed)
	if err != nil {
		return 0, 0, err
	}

	// Super-mesh: patches sit at odd coordinates so every pair of
	// patches has free corridor rows/columns between and around them.
	m := mesh.New(pl.Rows*2+1, pl.Cols*2+1)
	center := func(v int) mesh.Node {
		c := pl.Pos[v]
		return mesh.Node{Row: c.Row*2 + 1, Col: c.Col*2 + 1}
	}

	phases = 1
	var reserved []mesh.Path // current phase's claims
	var scratch mesh.Path
	for i, e := range order {
		var path mesh.Path
		var ok bool
		scratch, ok = m.AdaptiveRouteInto(scratch, center(e.u), center(e.v))
		if !ok {
			// Phase is full: release this phase's channels and retry on
			// the emptied mesh.
			for _, rp := range reserved {
				if rerr := m.Release(rp, 0); rerr != nil {
					return 0, 0, rerr
				}
			}
			reserved = reserved[:0]
			phases++
			scratch, ok = m.AdaptiveRouteInto(scratch, center(e.u), center(e.v))
			if !ok {
				return 0, 0, scerr.Unroutable("modcompile: stitch channel %d/%d unroutable on empty %dx%d mesh",
					i, len(order), pl.Rows*2+1, pl.Cols*2+1)
			}
		}
		path = append(mesh.Path(nil), scratch...)
		if err := m.Reserve(path, 0); err != nil {
			return 0, 0, err
		}
		reserved = append(reserved, path)
		links += len(path) - 1
	}
	if memo != nil {
		memo.put(key, stitchRoute{phases: phases, links: links})
	}
	return phases, links, nil
}
