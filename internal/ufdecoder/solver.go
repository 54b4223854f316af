package ufdecoder

import (
	"surfcomm/internal/decoder"
	"surfcomm/internal/scerr"
)

// strategy registers the union-find decoder under the name
// decoder.StrategyUnionFind.
type strategy struct{}

// Strategy returns the union-find decoding strategy. It is also
// registered at package init, so any layer that imports this package
// (the surfcomm facade does) can resolve it with
// decoder.StrategyByName("unionfind").
func Strategy() decoder.Strategy { return strategy{} }

func init() { decoder.RegisterStrategy(strategy{}) }

func (strategy) Name() string { return decoder.StrategyUnionFind }

func (strategy) NewSolver(l *decoder.Lattice) decoder.Solver {
	return &Solver{lat: l}
}

// Solver is one worker's union-find decoder for a fixed lattice. Its
// space-time detector graph builds on first use and is reused across
// batches; a different round count rebuilds it (allocating — the Monte
// Carlo harness decodes one round count, and a stream only its flushed
// tail differs). Not safe for concurrent use — each worker or
// streaming session owns its own Solver, per decoder.Solver's
// contract.
type Solver struct {
	lat    *decoder.Lattice
	st     *ufState
	rounds int // the round count st was built for
	// retired work-ops from discarded states, so WorkOps stays
	// cumulative across rebuilds.
	retired uint64
}

// WorkOps reports cumulative union-find work: growth half-steps,
// union/find root walks, and peeling visits. Deterministic for a given
// decode sequence.
func (s *Solver) WorkOps() uint64 {
	if s.st == nil {
		return s.retired
	}
	return s.retired + s.st.ops
}

// Decode implements decoder.Solver: the one-round space-time decode.
func (s *Solver) Decode(correction decoder.ErrorPattern, syndrome []bool) error {
	return s.DecodeHistory(correction, syndrome, 1)
}

// DecodeHistory implements decoder.Solver over the space-time toric
// graph: changes holds rounds × Checks() syndrome-change bits in
// round-major order.
func (s *Solver) DecodeHistory(correction decoder.ErrorPattern, changes []bool, rounds int) error {
	if checks := s.lat.Checks(); rounds < 1 || len(changes) != rounds*checks {
		return scerr.BadConfig("ufdecoder: change volume of %d bits over %d rounds, want rounds >= 1 and rounds × %d checks", len(changes), rounds, checks)
	}
	if s.st == nil || s.rounds != rounds {
		g, err := NewToricHistory(s.lat.Distance(), rounds)
		if err != nil {
			return err
		}
		if s.st != nil {
			s.retired += s.st.ops
		}
		s.st = newUFState(g)
		s.rounds = rounds
	}
	return s.st.decodeBits(correction, changes)
}
