package teleport

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"surfcomm/internal/simd"
)

// Property: with unlimited window, no schedule ever stalls, and the
// schedule length equals the base length; with window 0 and an
// immediate first use, arrivals can never precede physical transit.
func TestDistributionBoundsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		regions := []int{4, 16}[rng.Intn(2)]
		timesteps := 2 + rng.Intn(20)
		var moves []simd.Move
		for i := 0; i < rng.Intn(30); i++ {
			from := rng.Intn(regions)
			to := rng.Intn(regions)
			if from == to {
				to = (to + 1) % regions
			}
			if rng.Intn(4) == 0 {
				from = simd.MagicSource
			}
			moves = append(moves, simd.Move{
				Timestep: rng.Intn(timesteps),
				Qubit:    i,
				From:     from,
				To:       to,
			})
		}
		s := &simd.Schedule{
			Config:    simd.Config{Regions: regions, Width: 8},
			Timesteps: timesteps,
			Moves:     moves,
		}
		cfg := Config{Distance: 3 + 2*rng.Intn(4)}
		flood, err := DistributeContext(context.Background(), s, PrefetchAll, cfg)
		if err != nil {
			return false
		}
		tight, err := DistributeContext(context.Background(), s, 0, cfg)
		if err != nil {
			return false
		}
		// Guaranteed invariants only. Note what is deliberately NOT
		// asserted: schedule length is not monotone in window size —
		// launching everything at cycle 0 can congest the links and
		// stall MORE than staggered launches, which is exactly the
		// paper's "do not distribute EPRs too early since they may
		// cause traffic" (§4.2).
		if flood.ScheduleCycles < flood.BaseCycles || tight.ScheduleCycles < tight.BaseCycles {
			return false
		}
		// Prefetch-all holds every half live from cycle 0: the peak is
		// the theoretical maximum, and no window can exceed it.
		if len(moves) > 0 && flood.PeakLiveEPR != 2*len(moves) {
			return false
		}
		return tight.PeakLiveEPR <= flood.PeakLiveEPR
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: total pairs always equals the move count and live
// accounting is internally consistent (avg <= peak).
func TestLiveAccountingQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		timesteps := 3 + rng.Intn(10)
		var moves []simd.Move
		for i := 0; i < 1+rng.Intn(15); i++ {
			moves = append(moves, simd.Move{
				Timestep: rng.Intn(timesteps),
				Qubit:    i,
				From:     rng.Intn(4),
				To:       (rng.Intn(3) + 1 + rng.Intn(1)) % 4,
			})
		}
		for i := range moves {
			if moves[i].From == moves[i].To {
				moves[i].To = (moves[i].To + 1) % 4
			}
		}
		s := &simd.Schedule{
			Config:    simd.Config{Regions: 4, Width: 8},
			Timesteps: timesteps,
			Moves:     moves,
		}
		r, err := DistributeContext(context.Background(), s, int64(rng.Intn(200)), Config{Distance: 5})
		if err != nil {
			return false
		}
		if r.TotalPairs != len(moves) {
			return false
		}
		return r.AvgLiveEPR >= 0 && r.AvgLiveEPR <= float64(r.PeakLiveEPR)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
