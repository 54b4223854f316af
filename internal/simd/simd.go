// Package simd implements the Multi-SIMD scheduler for planar-code
// architectures (paper §4.4, after Heckey et al. ASPLOS'15): qubits
// live in k reconfigurable SIMD regions, each region applies one
// operation type per logical timestep to up to w qubits (microwave
// broadcast), and qubits that change region between timesteps teleport
// through the EPR network. The scheduler performs the mapping-level
// communication reduction of Fig. 4: qubits are partitioned into home
// regions by interaction locality, and operations are packed into
// regions where their operands already reside, minimizing
// teleportations.
package simd

import (
	"context"
	"fmt"
	"slices"

	"surfcomm/internal/circuit"
	"surfcomm/internal/partition"
	"surfcomm/internal/resource"
	"surfcomm/internal/scerr"
)

// MagicSource is the Move.From value for magic-state deliveries: the
// state is produced in a magic-state factory region and teleported to
// the consuming SIMD region.
const MagicSource = -1

// Config sizes the Multi-SIMD machine.
type Config struct {
	// Regions is k, the number of SIMD regions (power of two; the
	// home-region partition halves recursively). Zero selects 4.
	Regions int
	// Width is w, the maximum qubits operated on per region per
	// timestep. Zero selects 32.
	Width int
	// Seed drives the home-region partitioner.
	Seed int64
	// NaiveBanks disables locality partitioning (round-robin home
	// regions) — the baseline the mapping optimization is measured
	// against.
	NaiveBanks bool
}

func (c Config) withDefaults() Config {
	if c.Regions == 0 {
		c.Regions = 4
	}
	if c.Width == 0 {
		c.Width = 32
	}
	return c
}

func (c Config) validate() error {
	if c.Regions < 1 || c.Regions&(c.Regions-1) != 0 {
		return scerr.BadConfig("simd: regions must be a power of two, got %d", c.Regions)
	}
	if c.Width < 1 {
		return scerr.BadConfig("simd: width must be positive, got %d", c.Width)
	}
	return nil
}

// Validate checks the config as a caller-supplied machine shape (after
// zero-field defaulting); errors match scerr.ErrBadConfig. The facade
// validates SIMD overrides at the Target boundary with this, so the
// scheduler's internal constructors can assume sane dimensions.
func (c Config) Validate() error { return c.withDefaults().validate() }

// ConfigFor sizes the Multi-SIMD machine for a circuit: the Fig. 3a
// four-region checkerboard, widened to the full 16-region machine for
// large applications, with region width grown so every bank fits its
// share of the qubits. This is the single sizing rule shared by the
// EPR-study grid and the planar backend, so the two can never drift.
func ConfigFor(numQubits int, seed int64) Config {
	regions := 4
	if numQubits > 128 {
		regions = 16
	}
	width := 32
	if perBank := (numQubits + regions - 1) / regions; perBank > width {
		width = perBank
	}
	return Config{Regions: regions, Width: width, Seed: seed}
}

// Move is one teleportation: qubit Qubit relocates from region From to
// region To at the given timestep, consuming one EPR pair. Magic-state
// deliveries use From = MagicSource and Qubit = -1.
type Move struct {
	Timestep int
	Qubit    int
	From, To int
}

// Schedule is the Multi-SIMD execution plan of a circuit.
type Schedule struct {
	Config    Config
	Timesteps int
	Ops       int
	// Teleports counts inter-region qubit moves (data communication).
	Teleports int
	// MagicMoves counts magic-state deliveries (one per T gate).
	MagicMoves int
	// Moves lists every EPR-consuming event in timestep order.
	Moves []Move
	// HomeRegion is the initial bank assignment of each qubit.
	HomeRegion []int
	// CriticalTimesteps is the DAG depth under unit op latency — the
	// contention-free lower bound on Timesteps.
	CriticalTimesteps int
}

// schedState is the per-run scheduling state: the ready structure plus
// all per-timestep scratch, allocated once per RunContext and
// stamp-cleared between timesteps so the scheduling loop never
// allocates in steady state (the mesh/braid scratch pattern).
type schedState struct {
	c       *circuit.Circuit
	cfg     Config
	heights []int

	// ready holds schedulable ops in priority order (height descending,
	// op index ascending — a total order, so no stable sort is needed).
	// Insertions stage into pending and merge in one pass per timestep,
	// the batched-merge pattern of braid's readyQueue; the comparator is
	// static, so the merged slice is never resorted.
	ready   []int
	pending []int
	spare   []int

	// Stamp-cleared per-timestep scratch: a slot is live iff its stamp
	// matches the current timestep's stamp, so clearing is O(1).
	stamp       int64
	engagedAt   []int64          // per qubit: operated on this timestep
	scheduledAt []int64          // per op: committed this timestep
	groupAt     []int64          // per opcode: group live this timestep
	groupOps    [][]int          // per opcode: ready ops, priority order
	groupList   []circuit.Opcode // opcodes with ready ops this timestep
	counts      []int            // per region: operand residency
	regionOp    []circuit.Opcode // per region: broadcast opcode (Nop = unset)
	regionLoad  []int            // per region: ops committed
	scheduled   []int            // ops committed this timestep
}

func newSchedState(c *circuit.Circuit, cfg Config, heights []int) *schedState {
	return &schedState{
		c:           c,
		cfg:         cfg,
		heights:     heights,
		engagedAt:   make([]int64, c.NumQubits),
		scheduledAt: make([]int64, len(c.Gates)),
		groupAt:     make([]int64, circuit.OpcodeCount),
		groupOps:    make([][]int, circuit.OpcodeCount),
		groupList:   make([]circuit.Opcode, 0, circuit.OpcodeCount),
		counts:      make([]int, cfg.Regions),
		regionOp:    make([]circuit.Opcode, cfg.Regions),
		regionLoad:  make([]int, cfg.Regions),
	}
}

// less is the static ready-order comparator: most critical first,
// then op index — the same total order the per-timestep group sorts
// used to produce.
func (st *schedState) less(a, b int) bool {
	if st.heights[a] != st.heights[b] {
		return st.heights[a] > st.heights[b]
	}
	return a < b
}

// push stages an op for insertion at the next flush.
func (st *schedState) push(i int) { st.pending = append(st.pending, i) }

// flush merges staged ops into the ordered ready slice in one pass.
func (st *schedState) flush() {
	if len(st.pending) == 0 {
		return
	}
	slices.SortFunc(st.pending, func(a, b int) int {
		if st.less(a, b) {
			return -1
		}
		return 1
	})
	merged := st.spare[:0]
	i, j := 0, 0
	for i < len(st.ready) && j < len(st.pending) {
		if st.less(st.pending[j], st.ready[i]) {
			merged = append(merged, st.pending[j])
			j++
		} else {
			merged = append(merged, st.ready[i])
			i++
		}
	}
	merged = append(merged, st.ready[i:]...)
	merged = append(merged, st.pending[j:]...)
	st.spare = st.ready[:0]
	st.ready = merged
	st.pending = st.pending[:0]
}

// RunContext schedules the circuit on the Multi-SIMD machine. It polls
// ctx once per timestep; an aborted run returns an error matching
// scerr.ErrCanceled.
func RunContext(ctx context.Context, c *circuit.Circuit, cfg Config) (*Schedule, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	dag, err := resource.Build(c)
	if err != nil {
		return nil, err
	}
	heights := dag.Heights()

	bank := homeRegions(c, cfg)
	sched := &Schedule{
		Config:     cfg,
		Ops:        c.Ops(),
		HomeRegion: append([]int(nil), bank...),
	}
	_, depth := dag.ASAP()
	sched.CriticalTimesteps = depth

	st := newSchedState(c, cfg, heights)
	remDeps := make([]int, len(c.Gates))
	for i := range c.Gates {
		remDeps[i] = len(dag.Preds[i])
	}
	var admit func(i int)
	completed := 0
	admit = func(i int) {
		if c.Gates[i].Op == circuit.Barrier {
			completed++
			for _, s := range dag.Succs[i] {
				remDeps[s]--
				if remDeps[s] == 0 {
					admit(int(s))
				}
			}
			return
		}
		st.push(i)
	}
	for i := range c.Gates {
		if remDeps[i] == 0 {
			admit(i)
		}
	}

	timestep := 0
	done := ctx.Done()
	for completed < len(c.Gates) {
		if done != nil {
			select {
			case <-done:
				return nil, scerr.Canceled(ctx)
			default:
			}
		}
		st.flush()
		if len(st.ready) == 0 {
			return nil, fmt.Errorf("simd: no ready ops with %d gates pending (dependency corruption)",
				len(c.Gates)-completed)
		}
		scheduled := st.scheduleTimestep(bank, timestep, sched)
		if len(scheduled) == 0 {
			return nil, fmt.Errorf("simd: empty timestep with %d ready ops", len(st.ready))
		}
		// Retire scheduled ops (stamped by scheduleTimestep) and admit
		// their successors. The filter keeps the ready order intact.
		next := st.ready[:0]
		for _, i := range st.ready {
			if st.scheduledAt[i] != st.stamp {
				next = append(next, i)
			}
		}
		st.ready = next
		for _, i := range scheduled {
			completed++
			for _, s := range dag.Succs[i] {
				remDeps[s]--
				if remDeps[s] == 0 {
					admit(int(s))
				}
			}
		}
		timestep++
	}
	sched.Timesteps = timestep
	return sched, nil
}

// homeRegions assigns each qubit an initial bank: recursive bisection
// of the interaction graph (locality), or round-robin when NaiveBanks.
func homeRegions(c *circuit.Circuit, cfg Config) []int {
	bank := make([]int, c.NumQubits)
	if cfg.NaiveBanks || cfg.Regions == 1 {
		for q := range bank {
			bank[q] = q % cfg.Regions
		}
		return bank
	}
	g := partition.NewGraph(c.NumQubits)
	for _, gt := range c.Gates {
		if gt.Op.IsTwoQubit() {
			// Operands validated distinct by circuit validation.
			_ = g.AddEdge(gt.Qubits[0], gt.Qubits[1], 1)
		}
	}
	var rec func(vertices []int, base, parts int, seed int64)
	rec = func(vertices []int, base, parts int, seed int64) {
		if parts == 1 || len(vertices) == 0 {
			for _, v := range vertices {
				bank[v] = base
			}
			return
		}
		sub, mapping, err := g.InducedSubgraph(vertices)
		if err != nil {
			// Vertices come from our own recursion; cannot happen.
			panic(err)
		}
		side, _ := partition.Bisect(sub, partition.Options{Seed: seed})
		zero, one := partition.SideVertices(side)
		left := make([]int, len(zero))
		for i, v := range zero {
			left[i] = mapping[v]
		}
		right := make([]int, len(one))
		for i, v := range one {
			right[i] = mapping[v]
		}
		rec(left, base, parts/2, seed+1)
		rec(right, base+parts/2, parts/2, seed+2)
	}
	all := make([]int, c.NumQubits)
	for i := range all {
		all[i] = i
	}
	rec(all, 0, cfg.Regions, cfg.Seed)
	return bank
}

// scheduleTimestep packs ready ops into the k regions for one timestep
// and returns the scheduled op indices (valid until the next call). It
// mutates bank (qubit residency), appends the timestep's moves to
// sched, and stamps scheduledAt for every committed op. Steady-state
// allocation-free: all working sets live in the reused scratch.
func (st *schedState) scheduleTimestep(bank []int, timestep int, sched *Schedule) []int {
	st.stamp++
	stamp := st.stamp
	c, cfg := st.c, st.cfg

	// Group ready ops by opcode — a SIMD region broadcasts one operation
	// type per timestep. The ready slice is already in (height desc,
	// index asc) order, so each group inherits its priority order.
	st.groupList = st.groupList[:0]
	for _, i := range st.ready {
		op := c.Gates[i].Op
		if st.groupAt[op] != stamp {
			st.groupAt[op] = stamp
			st.groupOps[op] = st.groupOps[op][:0]
			st.groupList = append(st.groupList, op)
		}
		st.groupOps[op] = append(st.groupOps[op], i)
	}
	// Order groups by (max criticality desc, size desc, opcode asc).
	slices.SortFunc(st.groupList, func(a, b circuit.Opcode) int {
		if pa, pb := st.heights[st.groupOps[a][0]], st.heights[st.groupOps[b][0]]; pa != pb {
			if pa > pb {
				return -1
			}
			return 1
		}
		if la, lb := len(st.groupOps[a]), len(st.groupOps[b]); la != lb {
			if la > lb {
				return -1
			}
			return 1
		}
		if a < b {
			return -1
		}
		return 1
	})

	// Region state for this timestep: a region is either unconfigured
	// or broadcasts one opcode; several regions may broadcast the same
	// opcode (each has its own control), which keeps clustered operands
	// at home.
	for r := 0; r < cfg.Regions; r++ {
		st.regionOp[r] = circuit.Nop
		st.regionLoad[r] = 0
	}
	st.scheduled = st.scheduled[:0]

	for _, op := range st.groupList {
		for _, i := range st.groupOps[op] {
			conflict := false
			for _, q := range c.Gates[i].Qubits {
				if st.engagedAt[q] == stamp {
					conflict = true
					break
				}
			}
			if conflict {
				continue
			}
			// Preference order: the operand-majority region, then any
			// region already broadcasting this opcode with spare width,
			// then any unconfigured region.
			for r := 0; r < cfg.Regions; r++ {
				st.counts[r] = 0
			}
			for _, q := range c.Gates[i].Qubits {
				st.counts[bank[q]]++
			}
			pref, best := 0, -1
			for r := 0; r < cfg.Regions; r++ {
				if st.counts[r] > best {
					pref, best = r, st.counts[r]
				}
			}
			if st.placeIn(i, pref, bank, timestep, sched) {
				continue
			}
			placed := false
			for r := 0; r < cfg.Regions && !placed; r++ {
				if r != pref && st.regionOp[r] == c.Gates[i].Op && st.regionLoad[r] < cfg.Width {
					placed = st.placeIn(i, r, bank, timestep, sched)
				}
			}
			for r := 0; r < cfg.Regions && !placed; r++ {
				if st.regionOp[r] == circuit.Nop {
					placed = st.placeIn(i, r, bank, timestep, sched)
				}
			}
		}
	}
	return st.scheduled
}

// placeIn tries to commit op i to region r.
func (st *schedState) placeIn(i, r int, bank []int, timestep int, sched *Schedule) bool {
	c := st.c
	if st.regionOp[r] == circuit.Nop {
		st.regionOp[r] = c.Gates[i].Op
	} else if st.regionOp[r] != c.Gates[i].Op || st.regionLoad[r] >= st.cfg.Width {
		return false
	}
	if st.regionLoad[r] >= st.cfg.Width {
		return false
	}
	st.regionLoad[r]++
	for _, q := range c.Gates[i].Qubits {
		st.engagedAt[q] = st.stamp
		if bank[q] != r {
			sched.Moves = append(sched.Moves, Move{
				Timestep: timestep, Qubit: q, From: bank[q], To: r,
			})
			sched.Teleports++
			bank[q] = r
		}
	}
	if c.Gates[i].Op.IsT() {
		sched.Moves = append(sched.Moves, Move{
			Timestep: timestep, Qubit: -1, From: MagicSource, To: r,
		})
		sched.MagicMoves++
	}
	st.scheduledAt[i] = st.stamp
	st.scheduled = append(st.scheduled, i)
	return true
}
