package braid

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"surfcomm/internal/circuit"
)

// The ready queue batches insertions and merges them at flush; this
// must reproduce exactly the order a naive fully-sorted slice maintains
// under the same comparator, for every policy.
func TestReadyQueueMatchesReferenceOrder(t *testing.T) {
	for _, p := range AllPolicies {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(p) + 99))
			e := &engine{policy: p}
			var reference []event
			nextOp := 0
			for round := 0; round < 60; round++ {
				// Stage a burst of events with random priorities.
				for burst := rng.Intn(4); burst >= 0; burst-- {
					ev := event{
						opIndex:    nextOp,
						phase:      rng.Intn(2),
						closing:    rng.Intn(2) == 0,
						height:     rng.Intn(6),
						length:     rng.Intn(9),
						generation: rng.Intn(2),
						readySince: int64(rng.Intn(50)),
					}
					nextOp++
					e.insertEvent(ev)
					reference = append(reference, ev)
				}
				e.flushReady()
				// The reference: full sort under the engine comparator
				// with the same maxHeight.
				sort.SliceStable(reference, func(i, j int) bool {
					return e.less(reference[i], reference[j])
				})
				if len(e.ready.events) != len(reference) {
					t.Fatalf("round %d: queue has %d events, want %d",
						round, len(e.ready.events), len(reference))
				}
				for i := range reference {
					if e.ready.events[i] != reference[i] {
						t.Fatalf("round %d slot %d: queue %+v, reference %+v",
							round, i, e.ready.events[i], reference[i])
					}
				}
				// Occasionally retire events from the front, as placement
				// does, and keep the reference in lockstep.
				if n := rng.Intn(len(reference) + 1); n > 0 {
					e.ready.events = append(e.ready.events[:0], e.ready.events[n:]...)
					reference = append(reference[:0], reference[n:]...)
					e.refreshMax()
					e.needResort = true
				}
			}
		})
	}
}

// Whole-simulation regression: the batched queue and pooled paths must
// leave every observable metric of a reference workload bit-identical
// across repeated runs (the engine is a deterministic discrete-event
// simulator; any scratch-reuse bug shows up as run-to-run drift).
func TestEngineScratchReuseDeterminism(t *testing.T) {
	c := circuitWithMixedTraffic()
	type fingerprint struct {
		cycles, critical, braids, adaptive, reinject int64
		util                                         float64
	}
	for _, p := range AllPolicies {
		var first fingerprint
		for run := 0; run < 3; run++ {
			r, err := SimulateContext(context.Background(), c, p, Config{Distance: 5, Seed: 2})
			if err != nil {
				t.Fatalf("%v: %v", p, err)
			}
			fp := fingerprint{r.ScheduleCycles, r.CriticalPathCycles, r.BraidsPlaced,
				r.AdaptiveRoutes, r.Reinjections, r.AvgUtilization}
			if run == 0 {
				first = fp
			} else if fp != first {
				t.Fatalf("%v: run %d diverged: %+v vs %+v", p, run, fp, first)
			}
		}
	}
}

func circuitWithMixedTraffic() *circuit.Circuit {
	c := circuit.New("mixed", 12)
	for i := 0; i < 12; i++ {
		c.Append(circuit.T, i)
	}
	for i := 0; i < 11; i++ {
		c.Append(circuit.CNOT, i, i+1)
	}
	for i := 0; i < 12; i += 3 {
		c.Append(circuit.H, i)
	}
	return c
}
