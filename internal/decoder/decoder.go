// Package decoder implements the classical error-correction machinery
// the paper's QEC layer rests on (§2.3): syndrome extraction on a
// surface-code lattice and matching-based decoding, with a Monte Carlo
// harness that measures logical error rates. It empirically validates
// the p_L(d) = A·(p/p_th)^((d+1)/2) suppression model the toolflow's
// distance selection assumes.
//
// The lattice is the toric code (periodic boundaries — every data qubit
// sits on an edge between two plaquettes), which exercises the same
// decoding problem as the paper's planar/double-defect patches without
// boundary special-casing. One Pauli sector is simulated (independent X
// errors against Z-plaquette checks); the other sector is symmetric.
//
// The paper decodes with Edmonds' minimum-weight perfect matching
// (their ref [25]); this package substitutes greedy nearest-pair
// matching with a 2-opt refinement pass — the same matching objective,
// polynomial and dependency-free, with a slightly lower threshold
// (documented in DESIGN.md). The exponential error suppression below
// threshold, which is what the toolflow consumes, is preserved.
//
// The Monte Carlo harnesses parallelize over trials: random draws are
// generated sequentially from the caller's Rng (so the consumed stream
// is identical to a serial run), then trials decode across a bounded
// worker pool with per-worker scratch. Failure counts are bit-identical
// at any worker count.
package decoder

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"surfcomm/internal/scerr"
)

// Lattice is a distance-d toric code patch: 2d² data qubits on the
// edges of a d×d periodic grid, d² Z-plaquette checks.
type Lattice struct {
	d int
}

// NewLattice returns a distance-d lattice; d must be odd and ≥ 3 (the
// error matches scerr.ErrBadConfig).
func NewLattice(d int) (*Lattice, error) {
	if d < 3 || d%2 == 0 {
		return nil, scerr.BadConfig("decoder: distance must be odd and >= 3, got %d", d)
	}
	return &Lattice{d: d}, nil
}

// Distance returns the code distance.
func (l *Lattice) Distance() int { return l.d }

// DataQubits returns the number of data qubits (edges).
func (l *Lattice) DataQubits() int { return 2 * l.d * l.d }

// Checks returns the number of Z-plaquette stabilizers.
func (l *Lattice) Checks() int { return l.d * l.d }

// Edge indexing: horizontal edge h(r,c) has index r*d+c; vertical edge
// v(r,c) has index d² + r*d + c. h(r,c) runs along the top of plaquette
// (r,c); v(r,c) runs along its left side.
func (l *Lattice) hEdge(r, c int) int { return r*l.d + c }
func (l *Lattice) vEdge(r, c int) int { return l.d*l.d + r*l.d + c }

func (l *Lattice) wrap(x int) int {
	x %= l.d
	if x < 0 {
		x += l.d
	}
	return x
}

// PlaquetteEdges returns the four data qubits of plaquette (r,c):
// its top and bottom horizontal edges and left and right vertical ones.
func (l *Lattice) PlaquetteEdges(r, c int) [4]int {
	return [4]int{
		l.hEdge(r, c),
		l.hEdge(l.wrap(r+1), c),
		l.vEdge(r, c),
		l.vEdge(r, l.wrap(c+1)),
	}
}

// ErrorPattern is a set of X-flipped data qubits.
type ErrorPattern []bool

// NewErrorPattern returns an all-clear pattern for the lattice.
func (l *Lattice) NewErrorPattern() ErrorPattern {
	return make(ErrorPattern, l.DataQubits())
}

// Syndrome measures every plaquette: true means an odd number of its
// edges are flipped (a defect).
func (l *Lattice) Syndrome(e ErrorPattern) []bool {
	s := make([]bool, l.Checks())
	l.syndromeInto(s, e)
	return s
}

// syndromeInto measures every plaquette into dst (length Checks).
func (l *Lattice) syndromeInto(dst []bool, e ErrorPattern) {
	for r := 0; r < l.d; r++ {
		for c := 0; c < l.d; c++ {
			parity := false
			for _, q := range l.PlaquetteEdges(r, c) {
				if e[q] {
					parity = !parity
				}
			}
			dst[r*l.d+c] = parity
		}
	}
}

// defect is a plaquette with anomalous syndrome.
type defect struct{ r, c int }

// torusDist returns the shortest wrap-around distance between defects.
func (l *Lattice) torusDist(a, b defect) int {
	dr := abs(a.r - b.r)
	if wrapped := l.d - dr; wrapped < dr {
		dr = wrapped
	}
	dc := abs(a.c - b.c)
	if wrapped := l.d - dc; wrapped < dc {
		dc = wrapped
	}
	return dr + dc
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Decode returns a correction pattern whose application clears the
// syndrome: defects are paired by matching and each pair is joined by a
// geodesic chain of edge flips. The correction plus the true error
// always forms closed loops; decoding succeeds when no loop winds
// around the torus.
func (l *Lattice) Decode(syndrome []bool) (ErrorPattern, error) {
	if len(syndrome) != l.Checks() {
		return nil, fmt.Errorf("decoder: syndrome length %d != %d checks", len(syndrome), l.Checks())
	}
	var defects []defect
	for i, hot := range syndrome {
		if hot {
			defects = append(defects, defect{r: i / l.d, c: i % l.d})
		}
	}
	if len(defects)%2 != 0 {
		return nil, fmt.Errorf("decoder: odd defect count %d (corrupted syndrome)", len(defects))
	}
	pairs := l.match(defects)
	correction := l.NewErrorPattern()
	for _, p := range pairs {
		l.flipGeodesic(correction, defects[p[0]], defects[p[1]])
	}
	return correction, nil
}

// cand is one candidate defect pairing with its matching weight.
type cand struct{ a, b, w int }

// matchScratch holds the reusable candidate/matched/pairs buffers of
// the greedy + 2-opt matcher, so steady-state matching never allocates.
// ops counts cumulative weight evaluations (candidate generation plus
// 2-opt probes) — the matcher's deterministic work measure.
type matchScratch struct {
	cands   []cand
	matched []bool
	pairs   [][2]int
	ops     uint64
}

// matchPairs pairs n defects greedily by ascending weight under dist,
// then improves the pairing with 2-opt swaps until no swap reduces
// total weight — the polynomial substitute for Edmonds' blossom
// matching. Candidates sort on the total key (weight, then both defect
// indices): equal-weight pairs always match in the same order no matter
// what the sort algorithm does with ties. The returned slice is valid
// until the next call.
func (ms *matchScratch) matchPairs(n int, dist func(a, b int) int) [][2]int {
	ms.pairs = ms.pairs[:0]
	if n == 0 {
		return ms.pairs
	}
	ms.cands = ms.cands[:0]
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			ms.cands = append(ms.cands, cand{a, b, dist(a, b)})
			ms.ops++
		}
	}
	slices.SortFunc(ms.cands, func(x, y cand) int {
		if x.w != y.w {
			return x.w - y.w
		}
		if x.a != y.a {
			return x.a - y.a
		}
		return x.b - y.b
	})
	if cap(ms.matched) < n {
		ms.matched = make([]bool, n)
	}
	ms.matched = ms.matched[:n]
	clear(ms.matched)
	for _, c := range ms.cands {
		if !ms.matched[c.a] && !ms.matched[c.b] {
			ms.matched[c.a] = true
			ms.matched[c.b] = true
			ms.pairs = append(ms.pairs, [2]int{c.a, c.b})
		}
	}
	// 2-opt refinement: try re-pairing every pair of pairs.
	pairs := ms.pairs
	improved := true
	for improved {
		improved = false
		for i := 0; i < len(pairs); i++ {
			for j := i + 1; j < len(pairs); j++ {
				a0, a1 := pairs[i][0], pairs[i][1]
				b0, b1 := pairs[j][0], pairs[j][1]
				ms.ops += 4
				cur := dist(a0, a1) + dist(b0, b1)
				if alt := dist(a0, b0) + dist(a1, b1); alt < cur {
					pairs[i] = [2]int{a0, b0}
					pairs[j] = [2]int{a1, b1}
					improved = true
					continue
				}
				ms.ops += 2
				if alt := dist(a0, b1) + dist(a1, b0); alt < cur {
					pairs[i] = [2]int{a0, b1}
					pairs[j] = [2]int{a1, b0}
					improved = true
				}
			}
		}
	}
	return pairs
}

// match pairs defects with a fresh scratch (steady-state callers hold a
// trialScratch and call matchPairs directly).
func (l *Lattice) match(defects []defect) [][2]int {
	var ms matchScratch
	return ms.matchPairs(len(defects), func(a, b int) int {
		return l.torusDist(defects[a], defects[b])
	})
}

// flipGeodesic flips the edges of a shortest torus path between two
// defects: first along rows (through the vertical edges separating
// vertically-adjacent plaquettes), then along columns.
func (l *Lattice) flipGeodesic(e ErrorPattern, a, b defect) {
	r, c := a.r, a.c
	// Move vertically toward b.r along the shorter wrap direction.
	stepR := 1
	dr := l.wrap(b.r - r)
	if dr > l.d/2 {
		stepR = -1
		dr = l.d - dr
	}
	for k := 0; k < dr; k++ {
		// Crossing from plaquette row r to r+stepR flips the shared
		// horizontal edge: h(r+1, c) when stepping down, h(r, c) up.
		if stepR == 1 {
			e[l.hEdge(l.wrap(r+1), c)] = !e[l.hEdge(l.wrap(r+1), c)]
		} else {
			e[l.hEdge(l.wrap(r), c)] = !e[l.hEdge(l.wrap(r), c)]
		}
		r = l.wrap(r + stepR)
	}
	// Move horizontally toward b.c.
	stepC := 1
	dc := l.wrap(b.c - c)
	if dc > l.d/2 {
		stepC = -1
		dc = l.d - dc
	}
	for k := 0; k < dc; k++ {
		if stepC == 1 {
			e[l.vEdge(r, l.wrap(c+1))] = !e[l.vEdge(r, l.wrap(c+1))]
		} else {
			e[l.vEdge(r, l.wrap(c))] = !e[l.vEdge(r, l.wrap(c))]
		}
		c = l.wrap(c + stepC)
	}
}

// LogicalFailure reports whether the residual pattern (error ⊕
// correction) implements a logical operator: a chain winding around the
// torus. Winding is detected by the parity of crossings of two fixed
// cuts — horizontal edges in row 0 (vertical winding) and vertical
// edges in column 0 (horizontal winding).
func (l *Lattice) LogicalFailure(err, correction ErrorPattern) bool {
	vertWind := false
	horzWind := false
	for c := 0; c < l.d; c++ {
		if err[l.hEdge(0, c)] != correction[l.hEdge(0, c)] {
			vertWind = !vertWind
		}
	}
	for r := 0; r < l.d; r++ {
		if err[l.vEdge(r, 0)] != correction[l.vEdge(r, 0)] {
			horzWind = !horzWind
		}
	}
	return vertWind || horzWind
}

// Config tunes a Monte Carlo harness: the worker pool and the decoding
// strategy. The zero value is valid (GOMAXPROCS workers, MWPM).
type Config struct {
	// Workers bounds the decoding worker pool; 0 selects GOMAXPROCS,
	// 1 forces serial decoding. Negative counts are rejected by
	// Validate — they used to silently select GOMAXPROCS.
	Workers int
	// Strategy selects the decoding algorithm; nil selects MWPM.
	Strategy Strategy
}

// Validate rejects nonsensical configurations with an error matching
// scerr.ErrBadConfig.
func (c Config) Validate() error {
	if c.Workers < 0 {
		return scerr.BadConfig("decoder: negative worker count %d", c.Workers)
	}
	return nil
}

// strategy returns the configured strategy, defaulting to MWPM.
func (c Config) strategy() Strategy {
	if c.Strategy == nil {
		return MWPM()
	}
	return c.Strategy
}

// MonteCarlo estimates the logical X-error rate per decode round for
// independent physical error rate p over the given number of trials.
// Trials decode in parallel (see Config.Workers); the random stream and
// the failure count are identical to a serial run at any worker count.
type MonteCarlo struct {
	Lattice *Lattice
	Rng     *rand.Rand
	Config
}

// Result summarizes a Monte Carlo run.
type Result struct {
	Distance     int
	PhysicalRate float64
	Trials       int
	Failures     int
	LogicalRate  float64
	// WorkOps is the summed Solver.WorkOps over all trials — the
	// strategy's deterministic work measure, identical at any worker
	// count.
	WorkOps uint64
}

// trialScratch is one worker's reusable decode state: error/correction
// patterns, syndrome buffers, and the strategy's solver (which owns the
// matching/cluster scratch). With it, a steady-state trial allocates
// nothing.
type trialScratch struct {
	solver     Solver
	errs       ErrorPattern
	correction ErrorPattern
	combined   ErrorPattern
	syndrome   []bool
	meas       []bool
	prev       []bool
	changes    []bool
}

func (l *Lattice) newTrialScratch(s Strategy) *trialScratch {
	if s == nil {
		s = MWPM()
	}
	return &trialScratch{
		solver:     s.NewSolver(l),
		errs:       l.NewErrorPattern(),
		correction: l.NewErrorPattern(),
		combined:   l.NewErrorPattern(),
		syndrome:   make([]bool, l.Checks()),
		meas:       make([]bool, l.Checks()),
		prev:       make([]bool, l.Checks()),
	}
}

// mcTrial decodes one pregenerated trial: draws holds the per-qubit
// error flips. Returns whether the trial is a logical failure. It
// panics only on internal invariant violations (syndrome not cleared by
// its own correction), which indicate decoder bugs, not user error.
func (l *Lattice) mcTrial(sc *trialScratch, draws []bool) (bool, error) {
	copy(sc.errs, draws)
	l.syndromeInto(sc.syndrome, sc.errs)
	if err := sc.solver.Decode(sc.correction, sc.syndrome); err != nil {
		return false, err
	}
	// Invariant: correction must clear the syndrome.
	for q := range sc.combined {
		sc.combined[q] = sc.errs[q] != sc.correction[q]
	}
	l.syndromeInto(sc.syndrome, sc.combined)
	for i, hot := range sc.syndrome {
		if hot {
			panic(fmt.Sprintf("decoder: residual defect at plaquette %d — the solver broke the syndrome", i))
		}
	}
	return l.LogicalFailure(sc.errs, sc.correction), nil
}

// RunContext samples error patterns, decodes, and counts logical
// failures. It polls ctx between trial batches; an aborted run returns
// an error matching scerr.ErrCanceled, and a nonsensical configuration
// one matching scerr.ErrBadConfig.
func (mc *MonteCarlo) RunContext(ctx context.Context, p float64, trials int) (Result, error) {
	if mc.Lattice == nil {
		return Result{}, scerr.BadConfig("decoder: nil lattice")
	}
	if mc.Rng == nil {
		return Result{}, scerr.BadConfig("decoder: nil random source")
	}
	if err := mc.Config.Validate(); err != nil {
		return Result{}, err
	}
	if p < 0 || p > 1 {
		return Result{}, scerr.BadConfig("decoder: physical rate %g outside [0,1]", p)
	}
	if trials < 1 {
		return Result{}, scerr.BadConfig("decoder: need at least one trial, got %d", trials)
	}
	l := mc.Lattice
	res := Result{Distance: l.Distance(), PhysicalRate: p, Trials: trials}
	stride := l.DataQubits()
	failures, ops, err := runTrialBatches(ctx, l, mc.Workers, mc.strategy(), trials, stride,
		func(draws []bool) {
			for i := range draws {
				draws[i] = mc.Rng.Float64() < p
			}
		},
		(*Lattice).mcTrial)
	if err != nil {
		return Result{}, err
	}
	res.Failures = failures
	res.WorkOps = ops
	res.LogicalRate = float64(res.Failures) / float64(res.Trials)
	return res, nil
}

// batchTrials bounds the pregenerated-draw buffer: draws for at most
// this many trials are in memory at once.
const batchTrials = 1024

// runTrialBatches is the shared Monte Carlo engine: it draws trial
// randomness sequentially (gen fills one trial's stride of draws, so
// the Rng stream matches a serial run), then decodes each batch across
// the worker pool with per-worker scratch. The failure count is a sum
// of independent per-trial outcomes, so it is identical at any worker
// count — and so is the summed work-op count, since each trial's ops
// depend only on its own draws; errors surface from the lowest-indexed
// failing trial.
func runTrialBatches(ctx context.Context, l *Lattice, workers int, strategy Strategy, trials, stride int,
	gen func(draws []bool), trial func(*Lattice, *trialScratch, []bool) (bool, error)) (int, uint64, error) {

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}
	batch := batchTrials
	if batch > trials {
		batch = trials
	}
	draws := make([]bool, batch*stride)
	fails := make([]bool, batch)
	errs := make([]error, batch)
	scratch := make([]*trialScratch, workers)
	for w := range scratch {
		scratch[w] = l.newTrialScratch(strategy)
	}
	failures := 0
	done := ctx.Done()
	for start := 0; start < trials; start += batch {
		if done != nil {
			select {
			case <-done:
				return 0, 0, scerr.Canceled(ctx)
			default:
			}
		}
		n := batch
		if rem := trials - start; n > rem {
			n = rem
		}
		for t := 0; t < n; t++ {
			gen(draws[t*stride : (t+1)*stride])
		}
		if workers <= 1 {
			sc := scratch[0]
			for t := 0; t < n; t++ {
				fails[t], errs[t] = trial(l, sc, draws[t*stride:(t+1)*stride])
			}
		} else {
			var next atomic.Int64
			var wg sync.WaitGroup
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				sc := scratch[w]
				go func() {
					defer wg.Done()
					for {
						t := int(next.Add(1)) - 1
						if t >= n {
							return
						}
						fails[t], errs[t] = trial(l, sc, draws[t*stride:(t+1)*stride])
					}
				}()
			}
			wg.Wait()
		}
		for t := 0; t < n; t++ {
			if errs[t] != nil {
				return 0, 0, errs[t]
			}
			if fails[t] {
				failures++
			}
		}
	}
	var ops uint64
	for _, sc := range scratch {
		ops += sc.solver.WorkOps()
	}
	return failures, ops, nil
}
