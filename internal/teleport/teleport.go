// Package teleport simulates EPR-pair distribution for the planar
// Multi-SIMD architecture (paper §4.1, §8.1). Teleportation decouples
// communication into two steps: EPR halves travel ahead of time through
// swap channels (prefetchable, latency- and congestion-prone), and the
// data teleport itself is a constant-latency local interaction at the
// point of use. The optimizer's job is "just-in-time" distribution: a
// look-ahead window decides how early each pair is launched — too late
// starves teleports (stalls), too early floods the network with live
// EPR qubits (space).
//
// The simulator replays a Multi-SIMD schedule's move list: every
// teleport (and every magic-state delivery) consumes one EPR pair whose
// halves travel from the EPR factory region to the two endpoint
// regions, hop by hop, under per-link bandwidth limits.
package teleport

import (
	"context"
	"math"
	"slices"

	"surfcomm/internal/device"
	"surfcomm/internal/layout"
	"surfcomm/internal/scerr"
	"surfcomm/internal/simd"
)

// Config sets the physical parameters of the distribution network.
type Config struct {
	// Distance is the code distance d: one SIMD timestep is d error
	// correction cycles, and an EPR half crosses one region boundary in
	// max(1, d/4) cycles (a swap chain advances one lattice site per
	// two-qubit gate time; a tile is 2d−1 sites wide, pipelined 8-deep
	// per EC cycle). Zero selects 9.
	Distance int
	// LinkBandwidth is EPR halves per link per cycle. A region-boundary
	// channel is a multi-lane swap corridor (the teleport buffers of
	// Fig. 3a); zero selects 4 lanes.
	LinkBandwidth int
	// Device is the physical topology of the region grid. EPR halves
	// follow precomputed next-hop routes over its alive regions and
	// enabled links, and weighted links stretch their hop time. Nil (or
	// device.Perfect()) is the all-alive grid, whose routes are the
	// columns-first staircase at the base hop time. A schedule whose
	// endpoints are cut off from the EPR factory fails with an error
	// matching scerr.ErrUnroutable.
	Device *device.Device
}

func (c Config) withDefaults() Config {
	if c.Distance == 0 {
		c.Distance = 9
	}
	if c.LinkBandwidth == 0 {
		c.LinkBandwidth = 4
	}
	return c
}

// StepCycles returns the EC cycles per SIMD timestep.
func (c Config) StepCycles() int64 { return int64(c.Distance) }

// HopCycles returns the EC cycles per region hop of an EPR half.
func (c Config) HopCycles() int64 {
	h := c.Distance / 4
	if h < 1 {
		h = 1
	}
	return int64(h)
}

// maxRegions bounds the schedules a Distributor accepts. The next-hop
// table holds one direction per (node, destination) pair, so it grows
// with the square of the region grid: 1.1 MB at 1,024 regions (a
// 33×32 node grid with the factory row).
const maxRegions = 1024

// maxTimesteps bounds a schedule's length: the per-timestep scratch
// holds two int64s per timestep (64 MB at the bound). A SIMD timestep
// places at least one gate, and a gate line costs at least 6 bytes of a
// JSON request body ("h q0" and an escaped newline), so a 16 MB request
// compiles to fewer than 2.8 M timesteps.
const maxTimesteps = 1 << 22

// PrefetchAll is a window value large enough to launch every pair at
// cycle zero — the "distribute as early as possible" baseline the ~24×
// qubit-saving claim of §8.1 is measured against.
const PrefetchAll = int64(1) << 40

// Result reports one distribution run at a fixed window.
type Result struct {
	WindowCycles   int64
	BaseCycles     int64 // timesteps × StepCycles, no stalls
	StallCycles    int64 // added latency from late EPR arrivals
	ScheduleCycles int64 // BaseCycles + StallCycles
	TotalPairs     int
	PeakLiveEPR    int     // max concurrently live EPR halves (qubit cost)
	AvgLiveEPR     float64 // time-averaged live EPR halves
	// LatencyOverhead is StallCycles / BaseCycles.
	LatencyOverhead float64
}

// geometry places the k SIMD regions on a grid with the two ancilla
// factories on an extra row (Fig. 3a): magic-state factory bottom-left,
// EPR factory bottom-right.
type geometry struct {
	coords []layout.Coord // region id -> coordinate
	magic  layout.Coord
	epr    layout.Coord
	rows   int
	cols   int
}

func newGeometry(regions int) geometry {
	rows, cols := layout.GridFor(regions)
	if cols < 2 {
		cols = 2
	}
	g := geometry{rows: rows + 1, cols: cols}
	for r := 0; r < regions; r++ {
		g.coords = append(g.coords, layout.Coord{Row: r / cols, Col: r % cols})
	}
	g.magic = layout.Coord{Row: rows, Col: 0}
	g.epr = layout.Coord{Row: rows, Col: cols - 1}
	return g
}

// coordOf maps a move endpoint to a coordinate (MagicSource is the
// magic-state factory region).
func (g geometry) coordOf(region int) layout.Coord {
	if region == simd.MagicSource {
		return g.magic
	}
	return g.coords[region]
}

// nodeIndex flattens a coordinate onto the geometry grid.
func (g geometry) nodeIndex(c layout.Coord) int { return c.Row*g.cols + c.Col }

// half is one EPR half in flight: it follows the next-hop table from
// the EPR factory to its destination region. Positions are node
// indices on the geometry grid. Halves are pooled in a flat slice and
// addressed by index — no per-move heap objects.
type half struct {
	move int32
	dest int32
	pos  int32
}

// linkUse is the per-cycle bandwidth accounting of one directed channel
// between adjacent region coordinates.
type linkUse struct {
	cycle int64
	used  int32
}

// delta is one live-EPR counting event (launch +1, consume −1).
type delta struct {
	at int64
	d  int32
}

// Distributor owns the reusable simulation state of DistributeContext:
// the device's routing tables, pooled halves, the time-bucketed
// propagation calendar, dense per-link usage tables, and the
// arrival/live-accounting scratch. Reusing one
// Distributor across runs (as SweepWindowsContext does) makes
// steady-state distribution allocation-free. A Distributor is safe for
// one goroutine at a time.
type Distributor struct {
	geo        geometry // cached for geoRegions
	geoRegions int
	halves     []half
	launchTime []int64 // per half: network entry cycle
	order      []int32 // halves in launch-calendar order
	ring       [][]int32
	links      []linkUse
	arrival    []int64 // per move: latest half arrival
	maxArrival []int64 // per timestep: latest pair arrival
	starts     []int64 // per timestep: actual start cycle
	deltas     []delta

	// Device realization, cached per (device, geometry, hop): halves
	// follow per-destination next-hop tables around dead regions and
	// disabled links, and hopW prices each directed link's hop time.
	dev     *device.Device
	devRows int
	devCols int
	devHop  int64
	comps   []int32 // connected-component label per node (-1 dead)
	nextHop []int8  // [dest*nodes + node] -> direction 0..3 (-1 unreachable)
	hopW    []int64 // [node*4 + dir] -> hop cycles across that link
	maxHop  int64   // slowest weighted hop (sizes the ring calendar)
}

// geometryFor returns the cached geometry, rebuilding it only when the
// schedule's region count changes.
func (d *Distributor) geometryFor(regions int) geometry {
	if d.geoRegions != regions {
		d.geo = newGeometry(regions)
		d.geoRegions = regions
	}
	return d.geo
}

// NewDistributor returns an empty Distributor; scratch grows on first
// use and is retained across runs.
func NewDistributor() *Distributor { return &Distributor{} }

// dirDelta advances a coordinate along a directed-link slot: 0 Col+,
// 1 Col−, 2 Row+, 3 Row−.
func dirDelta(c layout.Coord, dir int8) layout.Coord {
	switch dir {
	case 0:
		c.Col++
	case 1:
		c.Col--
	case 2:
		c.Row++
	default:
		c.Row--
	}
	return c
}

// ensureDevice realizes the config's device on the geometry grid,
// rebuilding the cached routing tables only when the device, grid, or
// hop time changed.
func (d *Distributor) ensureDevice(geo geometry, cfg Config) {
	hop := cfg.HopCycles()
	if d.dev == cfg.Device && d.devRows == geo.rows && d.devCols == geo.cols && d.devHop == hop {
		return
	}
	d.dev, d.devRows, d.devCols, d.devHop = cfg.Device, geo.rows, geo.cols, hop
	d.maxHop = hop
	topo := cfg.Device.Instance(geo.rows, geo.cols)
	d.comps = topo.Components()
	nodes := geo.rows * geo.cols
	d.hopW = make([]int64, nodes*4)
	for r := 0; r < geo.rows; r++ {
		for c := 0; c < geo.cols; c++ {
			cur := layout.Coord{Row: r, Col: c}
			for dir := int8(0); dir < 4; dir++ {
				nb := dirDelta(cur, dir)
				h := hop
				if topo.InBounds(nb) {
					w := topo.LinkWeight(cur, nb)
					if topo.Calibrated() {
						// Calibrated fabrics price each channel's fidelity
						// too: error-prone couplers slow the swap corridor
						// (extra purification rounds per crossing).
						w *= 1 + topo.LinkErrorRate(cur, nb)
					}
					if w > 1 {
						h = int64(math.Ceil(float64(hop) * w))
					}
				}
				d.hopW[(r*geo.cols+c)*4+int(dir)] = h
				if h > d.maxHop {
					d.maxHop = h
				}
			}
		}
	}
	// Next-hop tables: one BFS per destination over alive regions and
	// enabled links, each node keeping the first feasible direction in
	// slot order — deterministic routes, no per-half search at runtime.
	// On an all-alive grid that is the columns-first staircase.
	d.nextHop = make([]int8, nodes*nodes)
	dist := make([]int32, nodes)
	queue := make([]int32, 0, nodes)
	for dst := 0; dst < nodes; dst++ {
		row := d.nextHop[dst*nodes : (dst+1)*nodes]
		for i := range row {
			row[i] = -1
		}
		dc := layout.Coord{Row: dst / geo.cols, Col: dst % geo.cols}
		if topo.TileDead(dc) {
			continue
		}
		for i := range dist {
			dist[i] = -1
		}
		dist[dst] = 0
		queue = append(queue[:0], int32(dst))
		for head := 0; head < len(queue); head++ {
			ci := int(queue[head])
			cur := layout.Coord{Row: ci / geo.cols, Col: ci % geo.cols}
			for dir := int8(0); dir < 4; dir++ {
				nb := dirDelta(cur, dir)
				if !topo.InBounds(nb) || topo.TileDead(nb) || topo.LinkDisabled(cur, nb) {
					continue
				}
				ni := nb.Row*geo.cols + nb.Col
				if dist[ni] >= 0 {
					continue
				}
				dist[ni] = dist[ci] + 1
				queue = append(queue, int32(ni))
			}
		}
		for n := 0; n < nodes; n++ {
			if n == dst || dist[n] <= 0 {
				continue
			}
			cur := layout.Coord{Row: n / geo.cols, Col: n % geo.cols}
			for dir := int8(0); dir < 4; dir++ {
				nb := dirDelta(cur, dir)
				if !topo.InBounds(nb) || topo.TileDead(nb) || topo.LinkDisabled(cur, nb) {
					continue
				}
				if dist[nb.Row*geo.cols+nb.Col] == dist[n]-1 {
					row[n] = dir
					break
				}
			}
		}
	}
}

// checkSchedule fails with an error matching scerr.ErrBadConfig when a
// hand-built schedule is nil, sized outside the bounds, or lists a move
// whose regions or timestep lie outside it: a move leaves a SIMD region
// or the magic-state factory (MagicSource) and lands in a SIMD region.
// Compiled schedules always pass; the check keeps the simulator's
// indexing in range for the others.
func checkSchedule(s *simd.Schedule) error {
	if s == nil {
		return scerr.BadConfig("teleport: nil schedule")
	}
	regions := s.Config.Regions
	if regions < 1 || regions > maxRegions {
		return scerr.BadConfig("teleport: schedule has %d regions, want 1 to %d", regions, maxRegions)
	}
	if s.Timesteps < 0 || s.Timesteps > maxTimesteps {
		return scerr.BadConfig("teleport: schedule has %d timesteps, want 0 to %d", s.Timesteps, maxTimesteps)
	}
	for m, mv := range s.Moves {
		if mv.From != simd.MagicSource && (mv.From < 0 || mv.From >= regions) || mv.To < 0 || mv.To >= regions {
			return scerr.BadConfig("teleport: move %d from region %d to %d outside schedule of %d regions",
				m, mv.From, mv.To, regions)
		}
		if mv.Timestep < 0 || mv.Timestep >= s.Timesteps {
			return scerr.BadConfig("teleport: move %d at timestep %d outside schedule of %d",
				m, mv.Timestep, s.Timesteps)
		}
	}
	return nil
}

// checkRoutable fails with an error matching scerr.ErrUnroutable when
// any move endpoint (or the EPR factory itself) is dead or cut off on
// the region grid.
func (d *Distributor) checkRoutable(geo geometry, s *simd.Schedule) error {
	eprComp := d.comps[geo.nodeIndex(geo.epr)]
	if eprComp < 0 {
		return scerr.Unroutable("teleport: EPR factory region %v is dead on the device", geo.epr)
	}
	for m, mv := range s.Moves {
		for _, c := range [2]layout.Coord{geo.coordOf(mv.From), geo.coordOf(mv.To)} {
			comp := d.comps[geo.nodeIndex(c)]
			if comp < 0 {
				return scerr.Unroutable("teleport: move %d endpoint region %v is dead on the device", m, c)
			}
			if comp != eprComp {
				return scerr.Unroutable("teleport: move %d endpoint region %v is disconnected from the EPR factory", m, c)
			}
		}
	}
	return nil
}

// DistributeContext replays the schedule's move list with the given
// look-ahead window (in EC cycles): each pair launches at
// max(0, useTime − window) and its halves contend for link bandwidth.
// It polls ctx every few thousand propagation cycles; an aborted run
// returns an error matching scerr.ErrCanceled.
func DistributeContext(ctx context.Context, s *simd.Schedule, window int64, cfg Config) (Result, error) {
	return NewDistributor().DistributeContext(ctx, s, window, cfg)
}

// DistributeContext runs one cancelable distribution on the reusable
// state.
func (d *Distributor) DistributeContext(ctx context.Context, s *simd.Schedule, window int64, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if window < 0 {
		return Result{}, scerr.BadConfig("teleport: negative window %d", window)
	}
	if err := checkSchedule(s); err != nil {
		return Result{}, err
	}
	geo := d.geometryFor(s.Config.Regions)
	d.ensureDevice(geo, cfg)
	if err := d.checkRoutable(geo, s); err != nil {
		return Result{}, err
	}
	res := Result{
		WindowCycles: window,
		BaseCycles:   int64(s.Timesteps) * cfg.StepCycles(),
		TotalPairs:   len(s.Moves),
	}
	if len(s.Moves) == 0 {
		res.ScheduleCycles = res.BaseCycles
		return res, nil
	}

	// Launch calendar: each move's two halves enter the network at
	// max(0, useTime − window), from the EPR factory. Schedules list
	// moves in timestep order, so launch times are already sorted and
	// the calendar is the creation order; hand-built schedules may be
	// out of order and get a stable (time, creation index) sort.
	d.halves = d.halves[:0]
	d.launchTime = d.launchTime[:0]
	epr := int32(geo.nodeIndex(geo.epr))
	sorted := true
	for m, mv := range s.Moves {
		at := int64(mv.Timestep)*cfg.StepCycles() - window
		if at < 0 {
			at = 0
		}
		for _, dst := range [2]layout.Coord{geo.coordOf(mv.From), geo.coordOf(mv.To)} {
			if len(d.launchTime) > 0 && at < d.launchTime[len(d.launchTime)-1] {
				sorted = false
			}
			d.halves = append(d.halves, half{move: int32(m), dest: int32(geo.nodeIndex(dst)), pos: epr})
			d.launchTime = append(d.launchTime, at)
		}
	}
	d.order = d.order[:0]
	for i := range d.halves {
		d.order = append(d.order, int32(i))
	}
	if !sorted {
		slices.SortFunc(d.order, func(a, b int32) int {
			if d.launchTime[a] != d.launchTime[b] {
				if d.launchTime[a] < d.launchTime[b] {
					return -1
				}
				return 1
			}
			return int(a) - int(b)
		})
	}

	// Cycle-driven propagation with per-link bandwidth on a ring
	// calendar: movement delays are only +1 (blocked retry) and at most
	// the slowest weighted hop, so maxHop+1 buckets cover every
	// in-flight half.
	hop := cfg.HopCycles()
	ringSize := int(d.maxHop) + 1
	if cap(d.ring) < ringSize {
		d.ring = make([][]int32, ringSize)
	}
	d.ring = d.ring[:ringSize]
	for i := range d.ring {
		d.ring[i] = d.ring[i][:0]
	}
	numLinks := geo.rows * geo.cols * 4
	if cap(d.links) < numLinks {
		d.links = make([]linkUse, numLinks)
	}
	d.links = d.links[:numLinks]
	for i := range d.links {
		d.links[i] = linkUse{cycle: -1}
	}
	if cap(d.arrival) < len(s.Moves) {
		d.arrival = make([]int64, len(s.Moves))
	}
	d.arrival = d.arrival[:len(s.Moves)]
	clear(d.arrival)

	nodes := geo.rows * geo.cols
	step := [4]int32{1, -1, int32(geo.cols), -int32(geo.cols)} // dirDelta's slots as node offsets
	active := len(d.halves)
	inFlight := 0
	cursor := 0
	bw := int32(cfg.LinkBandwidth)
	done := ctx.Done()
	for cycle := int64(0); active > 0; cycle++ {
		if done != nil && cycle&4095 == 0 {
			select {
			case <-done:
				return Result{}, scerr.Canceled(ctx)
			default:
			}
		}
		// Idle gap: nothing in flight, next launch in the future — skip
		// straight to it (pure fast-forward, no state advances between).
		if inFlight == 0 {
			if next := d.launchTime[d.order[cursor]]; next > cycle {
				cycle = next
			}
		}
		// Admit launches due inside the calendar window. A launch lands
		// in its bucket before any hop or retry can target that bucket,
		// preserving the launch-first bucket order of the old map.
		for cursor < len(d.order) && d.launchTime[d.order[cursor]] <= cycle+hop {
			hi := d.order[cursor]
			t := d.launchTime[hi]
			d.ring[t%int64(ringSize)] = append(d.ring[t%int64(ringSize)], hi)
			inFlight++
			cursor++
		}
		slot := cycle % int64(ringSize)
		bucket := d.ring[slot]
		if len(bucket) == 0 {
			continue
		}
		for _, hi := range bucket {
			h := &d.halves[hi]
			if h.pos == h.dest {
				if cycle > d.arrival[h.move] {
					d.arrival[h.move] = cycle
				}
				active--
				inFlight--
				continue
			}
			// Follow the next hop toward the destination (routability
			// was prechecked).
			dir := d.nextHop[int(h.dest)*nodes+int(h.pos)]
			link := int(h.pos)*4 + int(dir)
			u := &d.links[link]
			if u.cycle != cycle {
				u.cycle = cycle
				u.used = 0
			}
			if u.used >= bw {
				// Blocked: retry next cycle.
				rs := (cycle + 1) % int64(ringSize)
				d.ring[rs] = append(d.ring[rs], hi)
				continue
			}
			u.used++
			h.pos += step[dir]
			rs := (cycle + d.hopW[link]) % int64(ringSize)
			d.ring[rs] = append(d.ring[rs], hi)
		}
		d.ring[slot] = bucket[:0]
	}

	// Timestep commit recurrence: a timestep starts when the previous
	// one has finished AND all of its EPR pairs have arrived.
	if cap(d.maxArrival) < s.Timesteps {
		d.maxArrival = make([]int64, s.Timesteps)
	}
	d.maxArrival = d.maxArrival[:s.Timesteps]
	clear(d.maxArrival)
	for m, mv := range s.Moves {
		if d.arrival[m] > d.maxArrival[mv.Timestep] {
			d.maxArrival[mv.Timestep] = d.arrival[m]
		}
	}
	d.starts = d.starts[:0]
	prevEnd := int64(0)
	for t := 0; t < s.Timesteps; t++ {
		start := prevEnd
		if a := d.maxArrival[t]; a > start {
			start = a
		}
		d.starts = append(d.starts, start)
		prevEnd = start + cfg.StepCycles()
	}
	res.ScheduleCycles = prevEnd
	res.StallCycles = res.ScheduleCycles - res.BaseCycles
	if res.BaseCycles > 0 {
		res.LatencyOverhead = float64(res.StallCycles) / float64(res.BaseCycles)
	}

	// Live-EPR accounting: each half is live from launch until its
	// move's timestep commits (the pair is consumed by the teleport).
	d.deltas = d.deltas[:0]
	for i := range d.halves {
		consume := d.starts[s.Moves[d.halves[i].move].Timestep] + cfg.StepCycles()
		d.deltas = append(d.deltas, delta{at: d.launchTime[i], d: 1}, delta{at: consume, d: -1})
	}
	slices.SortFunc(d.deltas, func(a, b delta) int {
		if a.at != b.at {
			if a.at < b.at {
				return -1
			}
			return 1
		}
		return int(a.d) - int(b.d) // consume before launch at ties
	})
	live, peak := 0, 0
	var integral int64
	last := int64(0)
	for _, dl := range d.deltas {
		integral += int64(live) * (dl.at - last)
		last = dl.at
		live += int(dl.d)
		if live > peak {
			peak = live
		}
	}
	res.PeakLiveEPR = peak
	if res.ScheduleCycles > 0 {
		res.AvgLiveEPR = float64(integral) / float64(res.ScheduleCycles)
	}
	return res, nil
}

// SweepWindowsContext runs DistributeContext across a set of windows —
// the §8.1 window-size sensitivity study. One Distributor is shared
// across the windows, so only the first run pays the scratch
// allocation.
func SweepWindowsContext(ctx context.Context, s *simd.Schedule, windows []int64, cfg Config) ([]Result, error) {
	d := NewDistributor()
	out := make([]Result, 0, len(windows))
	for _, w := range windows {
		r, err := d.DistributeContext(ctx, s, w, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// JITWindow returns a just-in-time window heuristic for a schedule: the
// network diameter's traversal time plus one timestep of slack — deep
// enough to hide distribution latency, shallow enough to cap live
// pairs.
func JITWindow(s *simd.Schedule, cfg Config) int64 {
	cfg = cfg.withDefaults()
	geo := newGeometry(s.Config.Regions)
	diameter := int64(geo.rows + geo.cols)
	return diameter*cfg.HopCycles() + cfg.StepCycles()
}
