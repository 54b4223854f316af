package braid

import (
	"context"
	"fmt"
	"math"
	"slices"

	"surfcomm/internal/circuit"
	"surfcomm/internal/device"
	"surfcomm/internal/layout"
	"surfcomm/internal/mesh"
	"surfcomm/internal/partition"
	"surfcomm/internal/resource"
	"surfcomm/internal/scerr"
	"surfcomm/internal/surface"
)

// Config tunes a braid simulation. Zero values select defaults.
type Config struct {
	// Distance is the code distance d: braids stabilize for d cycles,
	// local logical gates take d syndrome cycles. Zero selects 9.
	Distance int
	// Seed drives the layout optimizer.
	Seed int64
	// AdaptTimeout is how long (cycles) an event must be blocked before
	// the router escalates from dimension-ordered to adaptive routes.
	// Zero selects one braid lifetime, 2(d+1).
	AdaptTimeout int64
	// LocalTOps is the ablation knob: when true, T gates execute
	// locally (magic states assumed pre-delivered) instead of braiding
	// a state in from a factory port. The paper's model — and the
	// default — is that every T operation's ancilla is produced in a
	// factory and consumed at the data (§4.3), which is a major source
	// of braid traffic.
	LocalTOps bool
	// FactoryRefill is the recovery time of a factory port after
	// supplying a state (cycles): the port's share of distillation
	// pipeline throughput. Zero selects d (factories continuously
	// prepare states, paper §4.3).
	FactoryRefill int64
	// Device is the physical topology the machine is realized on: dead
	// tiles are never placed or routed through, disabled links are
	// excluded from routing, and link latency multipliers stretch braid
	// stabilization. Nil (or device.Perfect()) selects the ideal uniform
	// grid, which takes the same placement and routing path as every
	// other device: all tiles alive, no link masked.
	Device *device.Device
	// Surgery switches the engine to lattice-surgery timing (paper
	// §8.2): a communicating op becomes a chain of patch merges and
	// splits along its route, each hop stabilizing for d cycles, so
	// phase latency grows with route length instead of being the
	// distance-independent 1-cycle claim of a braid. Contention rules
	// are identical — a merge chain claims its whole route — which is
	// exactly the paper's point: surgery has neither braiding's fast
	// movement nor teleportation's prefetchability.
	Surgery bool
	// Defects is an optional schedule of mid-execution coupler deaths:
	// at each event's cycle the link is masked out of the mesh and any
	// in-flight braid holding it is torn down and re-routed around the
	// new mask (via the same dimension-ordered → adaptive BFS
	// escalation). The simulation fails with an error matching
	// scerr.ErrUnroutable only when the surviving fabric genuinely
	// cannot carry the remaining traffic.
	Defects *device.DefectSchedule
	// Placement overrides the policy-selected qubit arrangement.
	Placement *layout.Placement
	// RecordSchedule captures the discovered static schedule in
	// Result.Schedule so it can be independently validated (Replay) or
	// exported for execution — the paper's "replay the dynamic schedule
	// as a static one".
	RecordSchedule bool
}

const (
	// dropTimeoutFactor sets how long an event may stay blocked before
	// it is dropped and re-injected (demoted behind fresh events):
	// dropTimeoutFactor·(d+1) cycles, four braid lifetimes.
	dropTimeoutFactor = 8
	// maxAttemptsPerRound bounds failed placement attempts per
	// scheduling round: greedy placement stops after this many misses,
	// and a full scan is forced whenever the network is idle.
	maxAttemptsPerRound = 48
)

func (c Config) withDefaults() Config {
	if c.Distance == 0 {
		c.Distance = 9
	}
	if c.AdaptTimeout == 0 {
		c.AdaptTimeout = int64(2 * (c.Distance + 1))
	}
	if c.FactoryRefill == 0 {
		c.FactoryRefill = int64(c.Distance)
	}
	return c
}

// Result reports one braid simulation (one bar plus one utilization
// point of Figure 6).
type Result struct {
	Policy             Policy
	Distance           int
	ScheduleCycles     int64
	CriticalPathCycles int64
	// Ratio is ScheduleCycles / CriticalPathCycles — the blue bars of
	// Figure 6 (1.0 is a perfect contention-free schedule).
	Ratio float64
	// AvgUtilization is the time-averaged fraction of busy mesh links —
	// the red curve of Figure 6.
	AvgUtilization float64
	Ops            int
	BraidsPlaced   int64
	AdaptiveRoutes int64
	Reinjections   int64
	// Reroutes counts in-flight braids torn down and re-placed around a
	// mid-execution coupler death (Config.Defects).
	Reroutes       int64
	Tiles          int
	PhysicalQubits int
	// Schedule is the recorded static schedule (nil unless
	// Config.RecordSchedule is set).
	Schedule []ScheduleEntry
	// Arch is the floorplan the schedule was discovered on (set only
	// when the schedule is recorded; needed to replay it).
	Arch *Arch
}

type opKind uint8

const (
	opBarrier opKind = iota
	opLocal
	opBraid
	opMagic
)

type op struct {
	kind    opKind
	qubits  []int
	latency int64 // local latency; braids use phase latency
	remDeps int
	phase   int // 0 pending-open, 1 opening, 2 pending-close, 3 closing, 4 done
	path    mesh.Path
	factory int
	// gen invalidates in-flight completions: a defect-event teardown
	// bumps it, so the torn-down phase's completion is skipped when it
	// pops instead of being excised from the heap.
	gen int
}

// event is a pending placement attempt: the opening or closing phase of
// a braid, or a local gate waiting for its tile.
type event struct {
	opIndex    int
	phase      int // 0 = opening / local, 1 = closing
	closing    bool
	height     int
	length     int
	readySince int64
	generation int
}

type compKind uint8

const (
	compLocal compKind = iota
	compOpenDone
	compCloseDone
	compWake // factory refill timer: wakes the scheduler, no payload
)

type completion struct {
	time int64
	op   int
	kind compKind
	gen  int   // op generation at push; stale pops are skipped
	seq  int64 // insertion order: deterministic pop order at equal times
}

// completionHeap is a min-heap on (time, seq). It is managed by inline
// sift methods rather than container/heap so pushes and pops move
// completion values directly — no interface boxing, no allocation.
type completionHeap []completion

func (h completionHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h *completionHeap) push(c completion) {
	*h = append(*h, c)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *completionHeap) pop() completion {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && s.less(r, j) {
			j = r
		}
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	return top
}

type engine struct {
	cfg    Config
	policy Policy
	arch   *Arch
	net    *mesh.Mesh
	dag    *resource.DAG
	ops    []op

	// Cooperative cancellation: ctx's done channel is latched once at
	// engine construction; the run loop polls it with a non-blocking
	// select per scheduling round — no allocation, and nil (background
	// context) skips the check entirely.
	ctx  context.Context
	done <-chan struct{}

	ready      readyQueue // ready events in policy priority order
	needResort bool       // comparator changed; reorder at next flush
	maxHeight  int        // max height among ready (Policy 6 length rule)
	atMax      int        // ready events at maxHeight

	heap      completionHeap
	seq       int64
	now       int64
	doneCount int

	tileBusy      []bool
	factoryBusy   []bool
	factoryFreeAt []int64

	// Reusable hot-path scratch: braid path buffers cycle through a
	// free list (claimed at route time, returned at release), and the
	// per-round worklist and factory candidate slices keep their
	// capacity across rounds.
	pathPool     []mesh.Path
	worklist     []int
	factoryCands []factoryCand

	busyIntegral   int64
	lastT          int64
	braidsPlaced   int64
	adaptiveRoutes int64
	reinjections   int64
	reroutes       int64

	// Route work, read only by the package's tests: route queries that
	// reach a path check, and adaptive BFS searches run.
	routeQueries int64
	searches     int64

	// Live-defect schedule: events sorted by cycle, consumed in order as
	// simulated time passes them.
	defects   []device.DefectEvent
	defectIdx int

	record   bool
	schedule []ScheduleEntry
}

// removeEntry deletes the most recent recorded entry for (op, kind) —
// the aborted phase of a defect-event teardown. Failed placements are
// not part of the static schedule (§6.1: "failed schedules are not
// recorded"); the re-route records a fresh entry when it commits.
func (e *engine) removeEntry(opIndex int, kind EntryKind) {
	if !e.record {
		return
	}
	for i := len(e.schedule) - 1; i >= 0; i-- {
		if e.schedule[i].Op == opIndex && e.schedule[i].Kind == kind {
			e.schedule = append(e.schedule[:i], e.schedule[i+1:]...)
			return
		}
	}
}

// recordEntry appends to the static schedule when recording is on,
// copying the entry's path out of the engine's pooled buffer.
func (e *engine) recordEntry(entry ScheduleEntry) {
	if e.record {
		entry.Path = append(mesh.Path(nil), entry.Path...)
		e.schedule = append(e.schedule, entry)
	}
}

// InteractionGraph converts a circuit's two-qubit interaction profile
// into a partition graph for the layout optimizer.
func InteractionGraph(c *circuit.Circuit) *partition.Graph {
	g := partition.NewGraph(c.NumQubits)
	for _, gt := range c.Gates {
		if gt.Op.IsTwoQubit() {
			// Gate operands are validated distinct; error impossible.
			_ = g.AddEdge(gt.Qubits[0], gt.Qubits[1], 1)
		}
	}
	return g
}

// SimulateContext discovers a static braid schedule for the circuit
// under the given policy and configuration, returning Figure 6 metrics.
// The scheduling loop polls ctx once per round and aborts with an error
// matching scerr.ErrCanceled. The poll is a non-blocking select against
// a pre-latched channel, so the hot path stays allocation-free.
func SimulateContext(ctx context.Context, c *circuit.Circuit, p Policy, cfg Config) (Result, error) {
	res, _, err := simulate(ctx, c, p, cfg)
	return res, err
}

// simulate is SimulateContext that also returns the finished engine, so
// the package's tests can read its route work counters.
func simulate(ctx context.Context, c *circuit.Circuit, p Policy, cfg Config) (Result, *engine, error) {
	cfg = cfg.withDefaults()
	if p < Policy0 || p > Policy6 {
		return Result{}, nil, scerr.BadConfig("braid: unknown policy %d", int(p))
	}
	dag, err := resource.Build(c)
	if err != nil {
		return Result{}, nil, err
	}
	place := cfg.Placement
	if place != nil {
		// A malformed placement (collision, out of bounds) is a caller
		// bug, not a device property; dead-tile refusals are NewArchOn's
		// job and classify as unroutable there.
		if err := place.Validate(); err != nil {
			return Result{}, nil, fmt.Errorf("braid: %w", err)
		}
	}
	topo, view, err := realizeDevice(cfg.Device, c.NumQubits, place)
	if err != nil {
		return Result{}, nil, err
	}
	if place == nil {
		if p.OptimizedLayout() {
			place, err = layout.OptimizedOn(InteractionGraph(c), cfg.Seed, view)
		} else {
			place, err = layout.RowMajorOn(c.NumQubits, view)
		}
		if err != nil {
			return Result{}, nil, err
		}
	}
	arch, err := NewArchOn(place, topo)
	if err != nil {
		return Result{}, nil, err
	}
	e := &engine{
		cfg:     cfg,
		policy:  p,
		arch:    arch,
		net:     arch.NewMesh(),
		dag:     dag,
		record:  cfg.RecordSchedule,
		defects: cfg.Defects.Sorted(),
		ctx:     ctx,
		done:    ctx.Done(),
	}
	e.buildOps(c)
	if err := e.checkRoutable(); err != nil {
		return Result{}, nil, err
	}
	if err := e.run(); err != nil {
		return Result{}, nil, err
	}
	_, critical := dag.ASAPWeighted(e.latencyWeight)
	res := Result{
		Policy:             p,
		Distance:           cfg.Distance,
		ScheduleCycles:     e.now,
		CriticalPathCycles: critical,
		Ops:                c.Ops(),
		BraidsPlaced:       e.braidsPlaced,
		AdaptiveRoutes:     e.adaptiveRoutes,
		Reinjections:       e.reinjections,
		Reroutes:           e.reroutes,
		Tiles:              arch.TotalTiles(),
		PhysicalQubits:     arch.PhysicalQubits(cfg.Distance),
	}
	if critical > 0 {
		res.Ratio = float64(e.now) / float64(critical)
	}
	if e.now > 0 && e.net.TotalLinks() > 0 {
		res.AvgUtilization = float64(e.busyIntegral) / float64(e.now*int64(e.net.TotalLinks()))
	}
	if cfg.Surgery {
		// Surgery keeps the planar code's cheap patches (plus a merge
		// corridor between adjacent tiles) instead of double-defect
		// tiles and braid channels.
		res.PhysicalQubits = arch.TotalTiles() * surface.PlanarTileQubits(cfg.Distance) * 3 / 2
	}
	if cfg.RecordSchedule {
		res.Schedule = e.schedule
		res.Arch = arch
	}
	return res, e, nil
}

// realizeDevice instantiates the device at the junction grid the
// circuit's floorplan implies and builds the placement view of its
// usable data tiles — for every device, the perfect one included, whose
// view is the all-alive near-square grid. The data grid grows beyond
// the near-square fit until enough tiles survive the defect map; a
// yield too low to ever fit the circuit fails with an error matching
// scerr.ErrUnroutable.
func realizeDevice(dev *device.Device, qubits int, fixed *layout.Placement) (*device.Topology, *device.View, error) {
	rows, cols := layout.GridFor(qubits)
	if fixed != nil {
		// A caller-fixed placement pins the grid; no growth.
		rows, cols = fixed.Rows, fixed.Cols
	}
	for {
		topo := dev.Instance(rows+1, archCols(cols)+1)
		// A data tile is usable iff its attachment junction survives.
		// The View's all-pairs distance table is lazy, so building one
		// per growth iteration costs only the aliveness scan.
		view := device.NewView(rows, cols, func(c device.Coord) bool {
			return !topo.TileDead(device.Coord{Row: c.Row, Col: physicalCol(c.Col)})
		})
		if topo.Calibrated() {
			// Expose per-tile calibrated error rates so the placement
			// optimizer steers qubits toward low-error regions.
			view.SetErrorRates(func(c device.Coord) float64 {
				return topo.TileErrorRate(device.Coord{Row: c.Row, Col: physicalCol(c.Col)})
			})
		}
		if view.AliveCount() >= qubits || fixed != nil {
			return topo, view, nil
		}
		if rows*cols > 4*qubits+64 {
			return nil, nil, scerr.Unroutable(
				"braid: device yield too low: %d usable tiles on a %dx%d grid for %d qubits",
				view.AliveCount(), rows, cols, qubits)
		}
		if cols <= rows {
			cols++
		} else {
			rows++
		}
	}
}

// checkRoutable fails fast — with an error matching scerr.ErrUnroutable
// — when any op's communication is impossible on the masked mesh even
// when idle: braid endpoints in different connected components of the
// fabric, or a magic destination cut off from every factory port.
func (e *engine) checkRoutable() error {
	comps := e.arch.Topo.Components()
	jcols := e.arch.TileCols + 1
	compOf := func(n mesh.Node) int32 { return comps[n.Row*jcols+n.Col] }
	factoryComp := make(map[int32]bool, len(e.arch.FactoryTiles))
	for f := range e.arch.FactoryTiles {
		factoryComp[compOf(e.arch.FactoryJunction(f))] = true
	}
	for i := range e.ops {
		o := &e.ops[i]
		switch o.kind {
		case opBraid:
			ca, cb := compOf(e.arch.QubitJunction(o.qubits[0])), compOf(e.arch.QubitJunction(o.qubits[1]))
			if ca < 0 || ca != cb {
				return scerr.Unroutable("braid: op %d qubits %d and %d are disconnected on the device",
					i, o.qubits[0], o.qubits[1])
			}
		case opMagic:
			if len(e.arch.FactoryTiles) == 0 {
				return scerr.Unroutable("braid: every factory port is dead on the device")
			}
			if cd := compOf(e.arch.QubitJunction(o.qubits[0])); cd < 0 || !factoryComp[cd] {
				return scerr.Unroutable("braid: op %d qubit %d cannot reach any factory port on the device",
					i, o.qubits[0])
			}
		}
	}
	return nil
}

func (e *engine) buildOps(c *circuit.Circuit) {
	e.ops = make([]op, len(c.Gates))
	for i, g := range c.Gates {
		o := &e.ops[i]
		o.qubits = g.Qubits
		o.remDeps = len(e.dag.Preds[i])
		o.factory = -1
		switch {
		case g.Op == circuit.Barrier:
			o.kind = opBarrier
		case g.Op.IsTwoQubit():
			o.kind = opBraid
		case g.Op.IsT() && !e.cfg.LocalTOps:
			o.kind = opMagic
		default:
			// Local logical operations are cheap on the surface code:
			// Paulis are frame updates, H/S/measure/prep are transversal
			// or single-round operations, and T (with a delivered magic
			// state) is one interaction. The d-cycle stabilization burden
			// rides on braids, not on tile-local gates — this asymmetry
			// ("an entire braid in 1 cycle, but stable for d") is what
			// creates the contention scaling of §6.
			o.kind = opLocal
			o.latency = 1
		}
	}
	e.tileBusy = make([]bool, e.arch.TileRows*e.arch.TileCols)
	e.factoryBusy = make([]bool, len(e.arch.FactoryTiles))
	e.factoryFreeAt = make([]int64, len(e.arch.FactoryTiles))
	// Pre-size the completion heap and ready queue for the in-flight
	// population so the steady state never regrows them.
	e.heap = make(completionHeap, 0, 16+len(c.Gates)/4)
	e.ready.events = make([]event, 0, 16+len(c.Gates)/8)
	e.ready.spare = make([]event, 0, 16+len(c.Gates)/8)
}

// latencyWeight is the contention-free latency of gate i — the cost
// model shared by the engine and the critical-path baseline.
func (e *engine) latencyWeight(i int) int64 {
	o := &e.ops[i]
	switch o.kind {
	case opBarrier:
		return 0
	case opLocal:
		return o.latency
	default: // braid/magic/merge-chain: open phase + close phase
		return 2 * e.phaseLatencyHops(e.opLength(i))
	}
}

// phaseLatencyHops is one communication phase for a route of the given
// hop count. Braids: the 1-cycle claim (the braid extends its full
// length in a single cycle regardless of distance) plus d stabilization
// cycles (paper Fig. 5) — length-independent. Lattice surgery: one
// d-cycle merge (or split) per hop plus the toggle cycle — latency
// grows with route length.
func (e *engine) phaseLatencyHops(hops int) int64 {
	if e.cfg.Surgery {
		if hops < 1 {
			hops = 1
		}
		return int64(hops)*int64(e.cfg.Distance) + 1
	}
	return int64(e.cfg.Distance) + 1
}

// phaseLatency is the phase latency of a routed path. On a weighted
// device the slowest link along the route stretches the whole phase —
// the stabilization rounds are paced by the worst channel the braid
// (or merge chain) occupies. Perfect devices multiply by 1 exactly.
//
// On a *calibrated* fabric the stretch is priced per actual traversed
// link instead of by the single worst one: the phase scales with the
// mean per-link cost of the route (Σ weight·(1+gateError) / hops), so
// one slow coupler on a long route costs its share rather than taxing
// the whole path at the worst-link rate. Legacy weighted presets keep
// the worst-link formula, preserving their committed artifacts
// bit-for-bit.
func (e *engine) phaseLatency(p mesh.Path) int64 {
	lat := e.phaseLatencyHops(len(p) - 1)
	if e.net.Calibrated() {
		if hops := len(p) - 1; hops > 0 {
			if mean := e.net.PathCost(p) / float64(hops); mean > 1 {
				lat = int64(math.Ceil(float64(lat) * mean))
			}
		}
		return lat
	}
	if w := e.net.PathMaxWeight(p); w > 1 {
		lat = int64(math.Ceil(float64(lat) * w))
	}
	return lat
}

func (e *engine) tileIndex(c layout.Coord) int { return c.Row*e.arch.TileCols + c.Col }

func (e *engine) run() error {
	heights := e.dag.Heights()
	// Arm the live-defect schedule: events at or before cycle 0 apply
	// immediately (nothing is in flight yet), later ones get a wake
	// completion so simulated time always lands on their cycle even when
	// no braid completes there.
	e.applyDefects(heights)
	for _, ev := range e.defects[e.defectIdx:] {
		e.push(completion{time: ev.Cycle, kind: compWake})
	}
	// Seed the ready set with dependency-free ops.
	worklist := e.worklist[:0]
	for i := range e.ops {
		if e.ops[i].remDeps == 0 {
			worklist = append(worklist, i)
		}
	}
	e.worklist = e.admit(worklist, heights)

	for e.doneCount < len(e.ops) {
		if e.done != nil {
			select {
			case <-e.done:
				return scerr.Canceled(e.ctx)
			default:
			}
		}
		placed := e.trySchedule(false, heights)
		if len(e.heap) == 0 {
			if placed > 0 {
				continue
			}
			if e.trySchedule(true, heights) == 0 {
				detail := "empty ready set"
				if len(e.ready.events) > 0 {
					h := &e.ready.events[0]
					o := &e.ops[h.opIndex]
					detail = fmt.Sprintf("head op %d kind=%d phase=%d opPhase=%d qubits=%v factory=%d tileBusy=%v factBusy=%v factFree=%v",
						h.opIndex, o.kind, h.phase, o.phase, o.qubits, o.factory,
						e.tileBusy[e.tileIndex(e.arch.QubitTile[o.qubits[0]])], e.factoryBusy, e.factoryFreeAt)
				}
				// The routability precheck passed, so only a live
				// defect that cuts the fabric can stall the run: it
				// surfaces as unroutable, never as a hang or panic.
				return scerr.Unroutable("braid: no progress at t=%d with %d ops pending, %d ready, idle network (%s)",
					e.now, len(e.ops)-e.doneCount, e.ready.Len(), detail)
			}
			continue
		}
		e.advance(heights)
	}
	e.flushUtil(e.now)
	return nil
}

// admit inserts newly dependency-free ops: barriers complete instantly
// (cascading), real ops become ready events. It returns the drained
// worklist so its capacity is reused next round.
func (e *engine) admit(worklist []int, heights []int) []int {
	for len(worklist) > 0 {
		i := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		if e.ops[i].kind == opBarrier {
			e.doneCount++
			for _, s := range e.dag.Succs[i] {
				e.ops[s].remDeps--
				if e.ops[s].remDeps == 0 {
					worklist = append(worklist, int(s))
				}
			}
			continue
		}
		e.insertEvent(event{
			opIndex:    i,
			height:     heights[i],
			length:     e.opLength(i),
			readySince: e.now,
		})
	}
	return worklist[:0]
}

// opLength estimates the braid length of an op (junction Manhattan
// distance); local ops are length 0.
func (e *engine) opLength(i int) int {
	o := &e.ops[i]
	switch o.kind {
	case opBraid:
		return mesh.Manhattan(e.arch.QubitJunction(o.qubits[0]), e.arch.QubitJunction(o.qubits[1]))
	case opMagic:
		dst := e.arch.QubitJunction(o.qubits[0])
		best := 0
		for f := range e.arch.FactoryTiles {
			d := mesh.Manhattan(e.arch.FactoryJunction(f), dst)
			if f == 0 || d < best {
				best = d
			}
		}
		return best
	}
	return 0
}

// insertEvent stages ev for the ready queue, maintaining the Policy-6
// max-height bookkeeping. A rising maxHeight changes the comparator, so
// the queue is flagged for a reorder at its next flush; the event
// itself merges in the same flush.
func (e *engine) insertEvent(ev event) {
	if ev.height > e.maxHeight {
		e.maxHeight = ev.height
		e.atMax = 0
		e.needResort = true
	}
	if ev.height == e.maxHeight {
		e.atMax++
	}
	e.ready.push(ev)
}

// less is the scheduling order: program order for Policy 0, the
// priority heuristics otherwise. Events are passed by value: the
// comparator runs inside sort loops where address-of-parameter would
// heap-allocate both operands per comparison.
func (e *engine) less(a, b event) bool {
	if !e.policy.Interleave() {
		if a.opIndex != b.opIndex {
			return a.opIndex < b.opIndex
		}
		return a.phase < b.phase
	}
	return e.policy.eventPriority(a, b, e.maxHeight)
}

// flushReady brings the ready queue into policy order, applying any
// pending comparator change exactly once.
func (e *engine) flushReady() {
	e.ready.flush(e.needResort, e.less)
	e.needResort = false
}

func (e *engine) trySchedule(full bool, heights []int) int {
	e.flushReady()
	if len(e.ready.events) == 0 {
		return 0
	}
	if !e.policy.Interleave() {
		return e.tryScheduleInOrder()
	}
	placed, failures := 0, 0
	resorted := false
	events := e.ready.events
	out := events[:0]
	stop := -1
	for idx := range events {
		ev := events[idx]
		if stop >= 0 {
			out = append(out, ev)
			continue
		}
		if e.place(&ev) {
			placed++
			e.atMaxRetireDeferred(&ev, &resorted)
			continue
		}
		if age := e.now - ev.readySince; age > dropTimeoutFactor*int64(e.cfg.Distance+1) {
			ev.generation++
			ev.readySince = e.now
			e.reinjections++
			resorted = true
		}
		failures++
		out = append(out, ev)
		if !full && failures >= maxAttemptsPerRound {
			stop = idx
		}
	}
	e.ready.events = out
	if resorted {
		e.refreshMax()
		e.needResort = true
	}
	return placed
}

// tryScheduleInOrder is the Policy-0 scheduler: opening events issue
// strictly in program order with head-of-line blocking. Closing events
// are exempt — a braid that has opened must always be allowed to
// shrink, otherwise a blocked newer opening ahead of an older braid's
// close deadlocks the network (priority inversion on held tiles and
// factory ports).
func (e *engine) tryScheduleInOrder() int {
	placed := 0
	blockedOpen := false
	events := e.ready.events
	out := events[:0]
	for idx := range events {
		ev := events[idx]
		if !ev.closing && blockedOpen {
			out = append(out, ev)
			continue
		}
		if e.place(&ev) {
			placed++
			continue
		}
		out = append(out, ev)
		if !ev.closing {
			blockedOpen = true
		}
	}
	e.ready.events = out
	return placed
}

// atMaxRetireDeferred handles max-height bookkeeping for a placed event
// without immediately resorting mid-iteration; the resort (if needed)
// happens once after the placement loop.
func (e *engine) atMaxRetireDeferred(ev *event, resorted *bool) {
	if ev.height == e.maxHeight {
		e.atMax--
		if e.atMax <= 0 {
			*resorted = true
		}
	}
}

func (e *engine) refreshMax() {
	e.maxHeight = 0
	e.atMax = 0
	for i := range e.ready.events {
		r := &e.ready.events[i]
		if r.height > e.maxHeight {
			e.maxHeight = r.height
			e.atMax = 1
		} else if r.height == e.maxHeight {
			e.atMax++
		}
	}
}

func (e *engine) place(ev *event) bool {
	o := &e.ops[ev.opIndex]
	switch o.kind {
	case opLocal:
		t := e.tileIndex(e.arch.QubitTile[o.qubits[0]])
		if e.tileBusy[t] {
			return false
		}
		e.tileBusy[t] = true
		e.push(completion{time: e.now + o.latency, op: ev.opIndex, kind: compLocal})
		e.recordEntry(ScheduleEntry{
			Op: ev.opIndex, Kind: EntryLocal, Start: e.now, End: e.now + o.latency, Factory: -1,
		})
		return true
	case opBraid:
		if ev.phase == 0 {
			return e.placeBraidOpen(ev, o)
		}
		return e.placeClose(ev, o, e.arch.QubitJunction(o.qubits[0]), e.arch.QubitJunction(o.qubits[1]))
	case opMagic:
		if ev.phase == 0 {
			return e.placeMagicOpen(ev, o)
		}
		return e.placeClose(ev, o, e.arch.FactoryJunction(o.factory), e.arch.QubitJunction(o.qubits[0]))
	}
	return false
}

func (e *engine) placeBraidOpen(ev *event, o *op) bool {
	ta := e.tileIndex(e.arch.QubitTile[o.qubits[0]])
	tb := e.tileIndex(e.arch.QubitTile[o.qubits[1]])
	if e.tileBusy[ta] || e.tileBusy[tb] {
		return false
	}
	path, ok := e.route(ev, e.arch.QubitJunction(o.qubits[0]), e.arch.QubitJunction(o.qubits[1]))
	if !ok {
		return false
	}
	e.tileBusy[ta] = true
	e.tileBusy[tb] = true
	e.commitPhase(ev, o, path)
	return true
}

// factoryCand is a candidate factory port for a magic-state braid.
type factoryCand struct{ f, dist int }

func (e *engine) placeMagicOpen(ev *event, o *op) bool {
	td := e.tileIndex(e.arch.QubitTile[o.qubits[0]])
	if e.tileBusy[td] {
		return false
	}
	dst := e.arch.QubitJunction(o.qubits[0])
	// Nearest available factory first; deterministic tie-break on index.
	// A factory the mesh proves unreachable is dropped before the sort:
	// route would refuse it anyway.
	cands := e.factoryCands[:0]
	for f := range e.arch.FactoryTiles {
		if e.factoryBusy[f] || e.factoryFreeAt[f] > e.now {
			continue
		}
		src := e.arch.FactoryJunction(f)
		if e.net.Unreachable(src, dst) {
			continue
		}
		cands = append(cands, factoryCand{f, mesh.Manhattan(src, dst)})
	}
	slices.SortFunc(cands, func(a, b factoryCand) int {
		if a.dist != b.dist {
			return a.dist - b.dist
		}
		return a.f - b.f
	})
	e.factoryCands = cands
	for _, c := range cands {
		path, ok := e.route(ev, e.arch.FactoryJunction(c.f), dst)
		if !ok {
			continue
		}
		e.tileBusy[td] = true
		e.factoryBusy[c.f] = true
		o.factory = c.f
		e.commitPhase(ev, o, path)
		return true
	}
	return false
}

func (e *engine) placeClose(ev *event, o *op, src, dst mesh.Node) bool {
	path, ok := e.route(ev, src, dst)
	if ok {
		e.commitPhase(ev, o, path)
	}
	return ok
}

// commitPhase claims a routed path for the event's phase — the opening
// or the closing of a braid, magic-state delivery or merge chain — and
// schedules the phase's completion one phase latency from now.
func (e *engine) commitPhase(ev *event, o *op, path mesh.Path) {
	e.reserve(path, ev.opIndex)
	o.path = path
	o.phase = 1
	done, kind := compOpenDone, EntryOpen
	if ev.closing {
		o.phase = 3
		done, kind = compCloseDone, EntryClose
	}
	lat := e.phaseLatency(path)
	e.push(completion{time: e.now + lat, op: ev.opIndex, kind: done, gen: o.gen})
	e.recordEntry(ScheduleEntry{
		Op: ev.opIndex, Kind: kind, Start: e.now, End: e.now + lat, Path: path, Factory: o.factory,
	})
}

// route finds a free path from src to dst. A query the mesh proves
// sure to fail (mesh.Unreachable) is refused before any path is built:
// every attempt below would fail without touching the mesh, the
// schedule or the Result counters, so refusing it leaves schedules
// unchanged. Otherwise route tries one dimension-ordered path first: on
// a calibrated mesh whichever of XY and YX has the lower per-link cost
// (mesh.PathCost; ties keep XY), so the router prefers fast, low-error
// corridors; everywhere else XY. Once the event has been blocked past
// the adaptivity timeout it escalates to the other dimension order and
// then to adaptive search (paper §6.1). The escalation is immediate
// when the first path crosses a dead junction or disabled link: that
// obstruction is permanent, so waiting out the congestion timeout would
// only stall (or deadlock) the schedule.
// Candidates are built in pooled buffers: a successful route keeps its
// buffer until the braid phase releases, the others return to the pool
// — so routing allocates nothing once the pool has warmed up.
func (e *engine) route(ev *event, src, dst mesh.Node) (mesh.Path, bool) {
	if e.net.Unreachable(src, dst) {
		return nil, false
	}
	e.routeQueries++
	p := mesh.XYPathInto(e.getPath(), src, dst)
	yxFirst := false
	if e.net.Calibrated() {
		yx := mesh.YXPathInto(e.getPath(), src, dst)
		if yxFirst = e.net.PathCost(yx) < e.net.PathCost(p); yxFirst {
			p, yx = yx, p
		}
		e.putPath(yx)
	}
	if e.net.PathFree(p) {
		return p, true
	}
	if e.now-ev.readySince >= e.cfg.AdaptTimeout || e.net.PathBlockedByMask(p) {
		if yxFirst {
			p = mesh.XYPathInto(p, src, dst)
		} else {
			p = mesh.YXPathInto(p, src, dst)
		}
		if e.net.PathFree(p) {
			return p, true
		}
		var ok bool
		e.searches++
		if p, ok = e.net.AdaptiveRouteInto(p, src, dst); ok {
			e.adaptiveRoutes++
			return p, true
		}
	}
	e.putPath(p)
	return nil, false
}

// getPath takes a path buffer from the free list (empty, capacity
// retained) or mints a fresh one.
func (e *engine) getPath() mesh.Path {
	if n := len(e.pathPool); n > 0 {
		p := e.pathPool[n-1]
		e.pathPool = e.pathPool[:n-1]
		return p[:0]
	}
	return make(mesh.Path, 0, 16)
}

// putPath returns a path buffer to the free list.
func (e *engine) putPath(p mesh.Path) {
	if cap(p) > 0 {
		e.pathPool = append(e.pathPool, p[:0])
	}
}

func (e *engine) reserve(p mesh.Path, owner int) {
	if err := e.net.Reserve(p, owner); err != nil {
		panic(fmt.Sprintf("braid: reservation invariant broken: %v", err))
	}
	e.braidsPlaced++
}

func (e *engine) release(p mesh.Path, owner int) {
	if err := e.net.Release(p, owner); err != nil {
		panic(fmt.Sprintf("braid: release invariant broken: %v", err))
	}
}

func (e *engine) push(c completion) {
	c.seq = e.seq
	e.seq++
	e.heap.push(c)
}

// advance pops every completion at the next timestamp and processes it.
// Defect events due at (or before) the timestamp apply first — a braid
// scheduled to finish exactly at the death cycle is conservatively torn
// down and re-routed, and its now-stale completion is skipped by the
// generation check.
func (e *engine) advance(heights []int) {
	t := e.heap[0].time
	e.flushUtil(t)
	e.now = t
	e.applyDefects(heights)
	worklist := e.worklist[:0]
	for len(e.heap) > 0 && e.heap[0].time == t {
		c := e.heap.pop()
		switch c.kind {
		case compWake:
			// Scheduler wake-up only.
		case compLocal:
			o := &e.ops[c.op]
			e.tileBusy[e.tileIndex(e.arch.QubitTile[o.qubits[0]])] = false
			worklist = e.completeOp(c.op, worklist)
		case compOpenDone:
			o := &e.ops[c.op]
			if c.gen != o.gen {
				continue // phase torn down by a defect event
			}
			e.release(o.path, c.op)
			e.putPath(o.path)
			o.path = nil
			o.phase = 2
			e.insertEvent(event{
				opIndex:    c.op,
				phase:      1,
				closing:    true,
				height:     heights[c.op],
				length:     e.opLength(c.op),
				readySince: e.now,
			})
		case compCloseDone:
			o := &e.ops[c.op]
			if c.gen != o.gen {
				continue // phase torn down by a defect event
			}
			e.release(o.path, c.op)
			e.putPath(o.path)
			o.path = nil
			o.phase = 4
			e.tileBusy[e.tileIndex(e.arch.QubitTile[o.qubits[0]])] = false
			if o.kind == opBraid {
				e.tileBusy[e.tileIndex(e.arch.QubitTile[o.qubits[1]])] = false
			} else {
				e.factoryBusy[o.factory] = false
				e.factoryFreeAt[o.factory] = e.now + e.cfg.FactoryRefill
				e.push(completion{time: e.factoryFreeAt[o.factory], kind: compWake})
			}
			worklist = e.completeOp(c.op, worklist)
		}
	}
	e.worklist = e.admit(worklist, heights)
}

// applyDefects consumes every defect event due at or before the current
// cycle: the coupler is masked out of the mesh, and any in-flight braid
// phase holding it is torn down and re-queued so the normal placement
// path re-routes it around the new mask. Events naming links outside
// the realized mesh (a schedule drawn for a larger chip) are ignored.
func (e *engine) applyDefects(heights []int) {
	for e.defectIdx < len(e.defects) && e.defects[e.defectIdx].Cycle <= e.now {
		ev := e.defects[e.defectIdx]
		e.defectIdx++
		if e.net.LinkMasked(ev.A, ev.B) {
			continue // already dead (static defect or duplicate event)
		}
		e.net.MaskLink(ev.A, ev.B)
		if !e.net.LinkMasked(ev.A, ev.B) {
			continue // outside the mesh
		}
		e.teardownCrossing(ev.A, ev.B, heights)
	}
}

// teardownCrossing aborts every in-flight braid phase whose claimed path
// traverses the newly dead link: the claim is released, the op's
// generation is bumped (invalidating its pending completion), and the
// phase is re-queued as a fresh ready event. An aborted opening reverts
// to pending-open and returns its endpoint tiles (and factory port, with
// no refill penalty — no state was consumed); an aborted closing reverts
// to pending-close with its tiles still held. The recorded schedule
// drops the aborted entry — failed schedules are not recorded (§6.1) —
// and the re-route records a fresh one when it commits.
func (e *engine) teardownCrossing(a, b mesh.Node, heights []int) {
	for i := range e.ops {
		o := &e.ops[i]
		if (o.phase != 1 && o.phase != 3) || !pathUsesLink(o.path, a, b) {
			continue
		}
		e.release(o.path, i)
		e.putPath(o.path)
		o.path = nil
		o.gen++
		e.reroutes++
		if o.phase == 1 {
			o.phase = 0
			e.tileBusy[e.tileIndex(e.arch.QubitTile[o.qubits[0]])] = false
			if o.kind == opBraid {
				e.tileBusy[e.tileIndex(e.arch.QubitTile[o.qubits[1]])] = false
			} else {
				e.factoryBusy[o.factory] = false
				o.factory = -1
			}
			e.removeEntry(i, EntryOpen)
			e.insertEvent(event{
				opIndex:    i,
				height:     heights[i],
				length:     e.opLength(i),
				readySince: e.now,
			})
		} else {
			o.phase = 2
			e.removeEntry(i, EntryClose)
			e.insertEvent(event{
				opIndex:    i,
				phase:      1,
				closing:    true,
				height:     heights[i],
				length:     e.opLength(i),
				readySince: e.now,
			})
		}
	}
}

// pathUsesLink reports whether the path traverses the (a,b) channel in
// either direction.
func pathUsesLink(p mesh.Path, a, b mesh.Node) bool {
	for i := 0; i+1 < len(p); i++ {
		if (p[i] == a && p[i+1] == b) || (p[i] == b && p[i+1] == a) {
			return true
		}
	}
	return false
}

// completeOp marks an op done and returns newly dependency-free
// successors appended to the worklist.
func (e *engine) completeOp(i int, worklist []int) []int {
	e.doneCount++
	for _, s := range e.dag.Succs[i] {
		e.ops[s].remDeps--
		if e.ops[s].remDeps == 0 {
			worklist = append(worklist, int(s))
		}
	}
	return worklist
}

// flushUtil integrates busy-link time up to t.
func (e *engine) flushUtil(t int64) {
	e.busyIntegral += int64(e.net.BusyLinks()) * (t - e.lastT)
	e.lastT = t
}
