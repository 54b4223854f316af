package teleport

import (
	"context"
	"testing"

	"surfcomm/internal/simd"
)

// TestDistributeZeroAlloc asserts a Distributor's launch-and-propagate
// loop is allocation-free in steady state: with the pooled halves, the
// ring calendar, and the dense link tables grown once, repeated
// distributions of a schedule allocate nothing.
func TestDistributeZeroAlloc(t *testing.T) {
	var moves []simd.Move
	for ts := 0; ts < 64; ts++ {
		for k := 0; k < 4; k++ {
			moves = append(moves, simd.Move{Timestep: ts, Qubit: k, From: k % 4, To: (k + 1) % 4})
		}
	}
	s := &simd.Schedule{
		Config:    simd.Config{Regions: 4, Width: 8},
		Timesteps: 64,
		Moves:     moves,
	}
	cfg := Config{Distance: 9, LinkBandwidth: 2}
	d := NewDistributor()
	windows := []int64{0, 16, 64, PrefetchAll}
	for _, w := range windows { // grow every buffer to its working size
		if _, err := d.DistributeContext(context.Background(), s, w, cfg); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range windows {
		w := w
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := d.DistributeContext(context.Background(), s, w, cfg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("window %d: Distribute allocates %.1f times per run, want 0", w, allocs)
		}
	}
}
