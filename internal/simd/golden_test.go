package simd

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"surfcomm/internal/apps"
)

// TestGoldenSchedules pins the Fig. 6 suite schedules bit-identically
// to the pre-refactor scheduler (the per-timestep map/sort
// implementation): the stamp-based scratch and batched-merge ready
// queue are pure mechanical changes, so every digest must hold exactly.
func TestGoldenSchedules(t *testing.T) {
	golden := map[string]struct {
		timesteps, ops, teleports, magic, crit int
		movesHash, homeHash                    uint64
	}{
		"GSE":   {1080, 1480, 70, 608, 1079, 0x1027d6176e50e547, 0xbfaf6bc5b6ddeed4},
		"SQ":    {412, 865, 366, 364, 412, 0x4e9c57db0e5bd85b, 0xc9efeb18f239e6f8},
		"SHA-1": {1670, 15749, 10902, 6608, 1670, 0xea35cf2155a81f6e, 0xafb2afd68cf2bc40},
		"IM":    {149, 4862, 398, 2032, 131, 0x17d5f0822ced76e2, 0xa7b4e9fa86cffd42},
	}
	for _, w := range apps.Fig6Suite() {
		want, ok := golden[w.Name]
		if !ok {
			t.Fatalf("no golden for suite app %s", w.Name)
		}
		sched, err := RunContext(context.Background(), w.Circuit, ConfigFor(w.Circuit.NumQubits, 1))
		if err != nil {
			t.Fatal(err)
		}
		if sched.Timesteps != want.timesteps || sched.Ops != want.ops ||
			sched.Teleports != want.teleports || sched.MagicMoves != want.magic ||
			sched.CriticalTimesteps != want.crit {
			t.Errorf("%s counters drifted: got (%d,%d,%d,%d,%d), want (%d,%d,%d,%d,%d)",
				w.Name, sched.Timesteps, sched.Ops, sched.Teleports, sched.MagicMoves,
				sched.CriticalTimesteps, want.timesteps, want.ops, want.teleports,
				want.magic, want.crit)
		}
		h := fnv.New64a()
		for _, m := range sched.Moves {
			fmt.Fprintf(h, "%d,%d,%d,%d;", m.Timestep, m.Qubit, m.From, m.To)
		}
		if got := h.Sum64(); got != want.movesHash {
			t.Errorf("%s move list drifted: hash %#x, want %#x", w.Name, got, want.movesHash)
		}
		hh := fnv.New64a()
		for _, b := range sched.HomeRegion {
			fmt.Fprintf(hh, "%d;", b)
		}
		if got := hh.Sum64(); got != want.homeHash {
			t.Errorf("%s home regions drifted: hash %#x, want %#x", w.Name, got, want.homeHash)
		}
	}
}
