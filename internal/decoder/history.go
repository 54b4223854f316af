package decoder

import (
	"context"
	"fmt"
	"math/rand"

	"surfcomm/internal/scerr"
)

// Syndrome-history decoding (paper §2.3): real syndrome measurements
// are themselves faulty, so syndromes are recorded over d rounds and
// decoded in a space-time volume — defects are syndrome *changes*
// between consecutive rounds, and matching runs in three dimensions
// (two space, one time). A defect pair joined through time is a
// measurement error (no data correction); the spatial displacement of a
// pair projects onto data corrections.

// spacetimeDefect is an anomalous syndrome change at (round t,
// plaquette (r,c)).
type spacetimeDefect struct {
	t int
	d defect
}

// HistoryMonteCarlo is the Monte Carlo harness: it estimates logical
// error rates for a syndrome history of the given number of rounds.
// Each round injects fresh data errors with probability p per qubit and
// flips each syndrome bit with probability q (the final round is
// measured perfectly, closing the volume — the standard terminating
// round). Rounds 1 with q = 0 is the code-capacity (perfect-measurement)
// measurement. Trials decode in parallel (see Workers); the failure
// count is identical to a serial run at any worker count.
type HistoryMonteCarlo struct {
	Lattice *Lattice
	Rounds  int
	Rng     *rand.Rand
	Config
}

// RunContext samples, decodes the space-time volume, and counts
// logical failures over the accumulated error. It polls ctx between
// trial batches; an aborted run returns an error matching
// scerr.ErrCanceled, and a nonsensical configuration one matching
// scerr.ErrBadConfig.
func (mc *HistoryMonteCarlo) RunContext(ctx context.Context, p, q float64, trials int) (Result, error) {
	if mc.Lattice == nil {
		return Result{}, scerr.BadConfig("decoder: nil lattice")
	}
	if mc.Rng == nil {
		return Result{}, scerr.BadConfig("decoder: nil random source")
	}
	if err := mc.Config.Validate(); err != nil {
		return Result{}, err
	}
	if p < 0 || p > 1 || q < 0 || q > 1 {
		return Result{}, scerr.BadConfig("decoder: rates (%g, %g) outside [0,1]", p, q)
	}
	if trials < 1 {
		return Result{}, scerr.BadConfig("decoder: need at least one trial, got %d", trials)
	}
	if mc.Rounds < 1 {
		return Result{}, scerr.BadConfig("decoder: need at least one round, got %d", mc.Rounds)
	}
	l := mc.Lattice
	res := Result{Distance: l.Distance(), PhysicalRate: p, Trials: trials}
	nq, checks, rounds := l.DataQubits(), l.Checks(), mc.Rounds
	// One trial's draw layout, in the exact order a serial run consumes
	// the Rng: per round, nq data-flip draws, then (for every round but
	// the perfectly-measured last) checks measurement-flip draws.
	stride := rounds*nq + (rounds-1)*checks
	failures, ops, err := runTrialBatches(ctx, l, mc.Workers, mc.strategy(), trials, rounds, stride,
		func(draws []bool) {
			pos := 0
			for t := 0; t < rounds; t++ {
				for qb := 0; qb < nq; qb++ {
					draws[pos+qb] = mc.Rng.Float64() < p
				}
				pos += nq
				if t < rounds-1 {
					for i := 0; i < checks; i++ {
						draws[pos+i] = mc.Rng.Float64() < q
					}
					pos += checks
				}
			}
		})
	if err != nil {
		return Result{}, err
	}
	res.Failures = failures
	res.WorkOps = ops
	res.LogicalRate = float64(res.Failures) / float64(res.Trials)
	return res, nil
}

// historyTrial replays one pregenerated syndrome history, extracts the
// round-to-round syndrome changes, and hands the space-time volume to
// the solver. Each round's measured syndrome lands in its slot of the
// change volume; the slots are then diffed in place, last round first,
// so a one-round trial costs one syndrome extraction and one decode.
// It panics only on internal invariant violations (syndrome not cleared
// by its own correction), which indicate decoder bugs, not user error.
func (l *Lattice) historyTrial(sc *trialScratch, rounds int, draws []bool) (bool, error) {
	nq, checks := l.DataQubits(), l.Checks()
	if cap(sc.changes) < rounds*checks {
		sc.changes = make([]bool, rounds*checks)
	}
	changes := sc.changes[:rounds*checks]
	copy(sc.errs, draws[:nq]) // cumulative data errors, starting clear
	pos := 0
	for t := 0; t < rounds; t++ {
		if t > 0 {
			for qb, flip := range draws[pos : pos+nq] {
				sc.errs[qb] = sc.errs[qb] != flip
			}
		}
		pos += nq
		meas := changes[t*checks : (t+1)*checks]
		l.syndromeInto(meas, sc.errs)
		if t < rounds-1 { // final round is perfect
			for i, flip := range draws[pos : pos+checks] {
				meas[i] = meas[i] != flip
			}
			pos += checks
		}
	}
	for t := rounds - 1; t > 0; t-- {
		prev := changes[(t-1)*checks : t*checks]
		for i, hot := range prev {
			changes[t*checks+i] = changes[t*checks+i] != hot
		}
	}
	if err := sc.solver.DecodeHistory(sc.correction, changes, rounds); err != nil {
		return false, err
	}

	for qb := range sc.combined {
		sc.combined[qb] = sc.errs[qb] != sc.correction[qb]
	}
	l.syndromeInto(sc.syndrome, sc.combined)
	for i, hot := range sc.syndrome {
		if hot {
			panic(fmt.Sprintf("decoder: space-time residual defect at plaquette %d", i))
		}
	}
	return l.LogicalFailure(sc.errs, sc.correction), nil
}
