package ufdecoder

import (
	"surfcomm/internal/decoder"
	"surfcomm/internal/scerr"
)

// ufState is one solver's mutable scratch for one detector graph:
// union-find forests, per-edge growth support, cluster vertex lists,
// and the peeling stacks. Every per-node and per-edge array is guarded
// by a stamp, so starting a new decode is O(defects), not O(graph) —
// untouched entries are simply stale. All buffers are allocated once
// at construction; steady-state decoding allocates nothing.
type ufState struct {
	g *Graph

	stamp uint32 // current decode epoch

	// Per-node, valid when nodeStamp matches stamp. Cluster-level
	// fields (odd, vHead, vTail, size) are maintained at the cluster
	// root.
	nodeStamp []uint32
	parent    []int32
	size      []int32
	odd       []bool
	defect    []bool
	vHead     []int32 // cluster vertex list head/tail (O(1) concat on merge)
	vTail     []int32
	vNext     []int32

	// Per-edge, valid when edgeStamp matches stamp.
	edgeStamp []uint32
	support   []int16

	// Per-decode scratch.
	seeds   []int32 // defect nodes in input order — the deterministic iteration order
	pending []int32 // edges that filled during the current growth round

	// Round-scoped root markers (one counter per growth/peel sweep).
	rootSeen  []uint32
	roundCtr  uint32
	oddActive int // odd-parity clusters, the ones still growing

	// Peeling: DFS preorder, tree pointers, visited stamps.
	peelStamp  []uint32
	order      []int32
	parentEdge []int32
	parentNode []int32
	stack      []int32

	ops uint64
}

func newUFState(g *Graph) *ufState {
	n, m := g.checks, g.Edges()
	return &ufState{
		g:          g,
		nodeStamp:  make([]uint32, n),
		parent:     make([]int32, n),
		size:       make([]int32, n),
		odd:        make([]bool, n),
		defect:     make([]bool, n),
		vHead:      make([]int32, n),
		vTail:      make([]int32, n),
		vNext:      make([]int32, n),
		edgeStamp:  make([]uint32, m),
		support:    make([]int16, m),
		seeds:      make([]int32, 0, n),
		pending:    make([]int32, 0, m),
		rootSeen:   make([]uint32, n),
		peelStamp:  make([]uint32, n),
		order:      make([]int32, 0, n),
		parentEdge: make([]int32, n),
		parentNode: make([]int32, n),
		stack:      make([]int32, 0, n),
	}
}

// begin opens a new decode epoch. On the (astronomically rare) stamp
// wrap it clears every stamped array so stale epochs can't alias.
func (st *ufState) begin() {
	st.stamp++
	if st.stamp == 0 {
		clear(st.nodeStamp)
		clear(st.edgeStamp)
		clear(st.rootSeen)
		clear(st.peelStamp)
		st.roundCtr = 0
		st.stamp = 1
	}
	st.seeds = st.seeds[:0]
	st.pending = st.pending[:0]
	st.oddActive = 0
}

// activate lazily initializes node v as a fresh singleton cluster for
// the current epoch.
func (st *ufState) activate(v int32) {
	if st.nodeStamp[v] == st.stamp {
		return
	}
	st.nodeStamp[v] = st.stamp
	st.parent[v] = v
	st.size[v] = 1
	st.odd[v] = false
	st.defect[v] = false
	st.vHead[v], st.vTail[v] = v, v
	st.vNext[v] = -1
}

// addDefect seeds a defect at check node v.
func (st *ufState) addDefect(v int32) {
	st.activate(v)
	st.defect[v] = true
	st.odd[v] = true
	st.oddActive++
	st.seeds = append(st.seeds, v)
}

// find returns v's cluster root, halving the path as it walks.
func (st *ufState) find(v int32) int32 {
	for st.parent[v] != v {
		st.parent[v] = st.parent[st.parent[v]]
		v = st.parent[v]
		st.ops++
	}
	return v
}

// union merges the clusters rooted at ra and rb (by size, smaller
// index on ties, so merges are deterministic) and maintains the
// odd-active census.
func (st *ufState) union(ra, rb int32) {
	if ra == rb {
		return
	}
	wasA, wasB := st.odd[ra], st.odd[rb]
	if st.size[ra] < st.size[rb] || (st.size[ra] == st.size[rb] && rb < ra) {
		ra, rb = rb, ra
	}
	// rb joins ra.
	st.parent[rb] = ra
	st.size[ra] += st.size[rb]
	st.odd[ra] = st.odd[ra] != st.odd[rb]
	st.vNext[st.vTail[ra]] = st.vHead[rb]
	st.vTail[ra] = st.vTail[rb]
	if st.odd[ra] {
		st.oddActive++
	}
	if wasA {
		st.oddActive--
	}
	if wasB {
		st.oddActive--
	}
	st.ops++
}

// growRound advances every odd cluster by one half-step on all edges
// incident to its vertices, then merges across the edges that filled. Increment and merge are two phases, so cluster
// membership is stable while frontiers are scanned and the result is
// independent of scan order races (there are none — all sequential).
func (st *ufState) growRound() {
	g := st.g
	st.roundCtr++
	for _, s := range st.seeds {
		r := st.find(s)
		if st.rootSeen[r] == st.roundCtr {
			continue
		}
		st.rootSeen[r] = st.roundCtr
		if !st.odd[r] {
			continue
		}
		for v := st.vHead[r]; v >= 0; v = st.vNext[v] {
			for k := g.adjOff[v]; k < g.adjOff[v+1]; k++ {
				e := g.adj[k]
				if st.edgeStamp[e] != st.stamp {
					st.edgeStamp[e] = st.stamp
					st.support[e] = 0
				}
				full := 2 * g.edgeW[e]
				if st.support[e] >= full {
					continue
				}
				st.support[e]++
				st.ops++
				if st.support[e] == full {
					st.pending = append(st.pending, e)
				}
			}
		}
	}
	for _, e := range st.pending {
		u, v := st.g.edgeU[e], st.g.edgeV[e]
		st.activate(u)
		st.activate(v)
		st.union(st.find(u), st.find(v))
	}
	st.pending = st.pending[:0]
}

// grow runs growth rounds until no odd cluster remains.
func (st *ufState) grow() error {
	// Each round adds at least one half-step of support somewhere, so
	// total rounds are bounded by the graph's support capacity; the
	// guard turns a broken invariant into an error instead of a hang.
	limit := 4*st.g.checks + 8
	for round := 0; st.oddActive > 0; round++ {
		if round > limit {
			return scerr.BadConfig("ufdecoder: growth did not converge after %d rounds", round)
		}
		st.growRound()
	}
	return nil
}

// peel reads the correction off each cluster: a DFS over the fully
// grown edges builds a spanning forest rooted at the cluster root, then
// vertices unwind in reverse preorder — a defect flips its tree edge's
// observable and hands its parity to the parent. An even cluster
// leaves its root clear.
func (st *ufState) peel(correction decoder.ErrorPattern) error {
	g := st.g
	st.roundCtr++
	for _, s := range st.seeds {
		r := st.find(s)
		if st.rootSeen[r] == st.roundCtr {
			continue
		}
		st.rootSeen[r] = st.roundCtr
		st.order = st.order[:0]
		st.stack = st.stack[:0]
		st.peelStamp[r] = st.stamp
		st.parentEdge[r] = -1
		st.parentNode[r] = -1
		st.stack = append(st.stack, r)
		for len(st.stack) > 0 {
			v := st.stack[len(st.stack)-1]
			st.stack = st.stack[:len(st.stack)-1]
			st.order = append(st.order, v)
			for k := g.adjOff[v]; k < g.adjOff[v+1]; k++ {
				e := g.adj[k]
				if st.edgeStamp[e] != st.stamp || st.support[e] < 2*g.edgeW[e] {
					continue
				}
				u := g.edgeU[e]
				if u == v {
					u = g.edgeV[e]
				}
				if st.peelStamp[u] == st.stamp {
					continue
				}
				st.peelStamp[u] = st.stamp
				st.parentEdge[u] = e
				st.parentNode[u] = v
				st.stack = append(st.stack, u)
				st.ops++
			}
		}
		for k := len(st.order) - 1; k >= 0; k-- {
			v := st.order[k]
			if !st.defect[v] {
				continue
			}
			e := st.parentEdge[v]
			if e < 0 {
				return scerr.BadConfig("ufdecoder: unmatched defect at node %d (odd cluster parity)", v)
			}
			if obs := g.edgeObs[e]; obs >= 0 {
				correction[obs] = !correction[obs]
			}
			st.defect[v] = false
			p := st.parentNode[v]
			st.defect[p] = !st.defect[p]
			st.ops++
		}
	}
	return nil
}

// decodeBits runs the full union-find pipeline for the defect bitmap
// (bit i seeds node i; the caller checks the length) and writes the
// correction (cleared first).
func (st *ufState) decodeBits(correction decoder.ErrorPattern, bits []bool) error {
	st.begin()
	clear(correction)
	for i, hot := range bits {
		if hot {
			st.addDefect(int32(i))
		}
	}
	if len(st.seeds) == 0 {
		return nil
	}
	if len(st.seeds)%2 != 0 {
		return scerr.BadConfig("ufdecoder: odd defect count %d on a boundaryless graph (corrupted syndrome)", len(st.seeds))
	}
	if err := st.grow(); err != nil {
		return err
	}
	return st.peel(correction)
}
