package decoder

import (
	"sort"
	"sync"

	"surfcomm/internal/scerr"
)

// Strategy names accepted by StrategyByName (and by every layer above —
// sweep grids, the toolchain option, the streaming decode service).
const (
	// StrategyMWPM is the matching-based decoder of §2.3: greedy
	// nearest-pair matching with 2-opt refinement, the polynomial
	// substitute for Edmonds' blossom matching. It is the accuracy
	// reference; its cost grows quadratically in the defect count.
	StrategyMWPM = "mwpm"
	// StrategyUnionFind is the almost-linear-time union-find decoder
	// (weighted cluster growth + peeling), registered by
	// internal/ufdecoder. Slightly less accurate than matching, but its
	// cost stays near-linear in the defect count — the raw-speed choice
	// at large distances and the real-time streaming default.
	StrategyUnionFind = "unionfind"
)

// Solver is one worker's decoding engine for a fixed lattice: it owns
// its scratch (pooled, allocation-free in steady state) and is NOT safe
// for concurrent use — each Monte Carlo worker and each streaming
// session holds its own.
type Solver interface {
	// Decode writes a correction clearing the syndrome (length Checks)
	// into correction (length DataQubits, cleared by the solver). It is
	// DecodeHistory over a one-round volume: a perfect measurement's
	// syndrome is its own change volume.
	Decode(correction ErrorPattern, syndrome []bool) error
	// DecodeHistory decodes a space-time syndrome volume: changes holds
	// rounds × Checks() syndrome-CHANGE bits in round-major order
	// (changes[t*Checks()+i] reports check i flipping between rounds
	// t-1 and t). The spatial projection of the space-time matching —
	// the data correction — lands in correction. It fails with an
	// error matching scerr.ErrBadConfig when rounds < 1, when changes
	// is not rounds × Checks() long, and on volumes no correction can
	// clear (an odd defect count on the boundaryless torus).
	DecodeHistory(correction ErrorPattern, changes []bool, rounds int) error
	// WorkOps reports the cumulative algorithmic work this solver has
	// performed, in strategy-specific primitive operations (candidate
	// comparisons for matching; growth/union/peel steps for
	// union-find). Deterministic for a given decode sequence, so summed
	// counts are comparable across strategies and machine-independent —
	// the wall-clock proxy the BENCH_decode.json crossover records.
	WorkOps() uint64
}

// Strategy constructs per-worker solvers for a lattice. Implementations
// register themselves with RegisterStrategy so layers that only know a
// name (the HTTP service, cmd/sweep flags) can resolve one.
type Strategy interface {
	Name() string
	NewSolver(l *Lattice) Solver
}

var (
	strategyMu sync.RWMutex
	strategies = map[string]Strategy{StrategyMWPM: mwpmStrategy{}}
)

// RegisterStrategy makes a decoding strategy resolvable by name;
// re-registering a name replaces it (latest wins).
func RegisterStrategy(s Strategy) {
	strategyMu.Lock()
	strategies[s.Name()] = s
	strategyMu.Unlock()
}

// StrategyByName resolves a decoding strategy; the empty name selects
// MWPM (the historical default). Unknown names fail with an error
// matching scerr.ErrBadConfig that lists the registered set.
func StrategyByName(name string) (Strategy, error) {
	if name == "" {
		name = StrategyMWPM
	}
	strategyMu.RLock()
	s, ok := strategies[name]
	strategyMu.RUnlock()
	if !ok {
		return nil, scerr.BadConfig("decoder: unknown strategy %q (valid: %v)", name, StrategyNames())
	}
	return s, nil
}

// StrategyNames lists the registered strategies, sorted.
func StrategyNames() []string {
	strategyMu.RLock()
	names := make([]string, 0, len(strategies))
	for n := range strategies {
		names = append(names, n)
	}
	strategyMu.RUnlock()
	sort.Strings(names)
	return names
}

// mwpmStrategy is the built-in matching decoder behind Strategy.
type mwpmStrategy struct{}

// MWPM returns the matching-based decoding strategy (the default).
func MWPM() Strategy { return mwpmStrategy{} }

func (mwpmStrategy) Name() string { return StrategyMWPM }

func (mwpmStrategy) NewSolver(l *Lattice) Solver { return &mwpmSolver{l: l} }

// mwpmSolver is one worker's matching decoder: the greedy + 2-opt
// matcher plus the defect-list scratch, reused across decodes.
type mwpmSolver struct {
	l       *Lattice
	match   matchScratch
	defects []spacetimeDefect
}

func (s *mwpmSolver) WorkOps() uint64 { return s.match.ops }

func (s *mwpmSolver) Decode(correction ErrorPattern, syndrome []bool) error {
	return s.DecodeHistory(correction, syndrome, 1)
}

// DecodeHistory pairs the volume's defects by space-time matching and
// joins each pair's spatial projection by a geodesic chain of edge
// flips. The correction plus the true error always forms closed loops;
// decoding succeeds when no loop winds around the torus.
func (s *mwpmSolver) DecodeHistory(correction ErrorPattern, changes []bool, rounds int) error {
	l := s.l
	checks := l.Checks()
	if rounds < 1 || len(changes) != rounds*checks {
		return scerr.BadConfig("decoder: change volume of %d bits over %d rounds, want rounds >= 1 and rounds × %d checks", len(changes), rounds, checks)
	}
	s.defects = s.defects[:0]
	for t := 0; t < rounds; t++ {
		base := t * checks
		for i := 0; i < checks; i++ {
			if changes[base+i] {
				s.defects = append(s.defects, spacetimeDefect{
					t: t,
					d: defect{r: i / l.d, c: i % l.d},
				})
			}
		}
	}
	clear(correction)
	if len(s.defects) == 0 {
		return nil
	}
	if len(s.defects)%2 != 0 {
		return scerr.BadConfig("decoder: odd space-time defect count %d (corrupted syndrome stream)", len(s.defects))
	}
	defects := s.defects
	pairs := s.match.matchPairs(len(defects), func(a, b int) int {
		dt := defects[a].t - defects[b].t
		if dt < 0 {
			dt = -dt
		}
		return l.torusDist(defects[a].d, defects[b].d) + dt
	})
	for _, pr := range pairs {
		// The spatial projection carries the data correction; the time
		// component is measurement-error bookkeeping.
		l.flipGeodesic(correction, defects[pr[0]].d, defects[pr[1]].d)
	}
	return nil
}
