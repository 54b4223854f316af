// Pipelined EPR distribution (paper §8.1): schedule the Square Root
// application on the Multi-SIMD planar machine and sweep the
// just-in-time look-ahead window, trading live EPR qubits (space)
// against teleport stalls (time).
package main

import (
	"context"
	"fmt"
	"log"

	"surfcomm"
)

func main() {
	log.SetFlags(0)

	sq, err := surfcomm.NewSQ(surfcomm.SQConfig{N: 8, Iters: 2})
	if err != nil {
		log.Fatal(err)
	}
	tc, err := surfcomm.NewToolchain()
	if err != nil {
		log.Fatal(err)
	}
	plan, err := tc.Compile(context.Background(), surfcomm.PlanarBackend{}, sq, func(t *surfcomm.Target) {
		t.SIMD = surfcomm.SIMDConfig{Regions: 4, Width: 16, Seed: 1}
	})
	if err != nil {
		log.Fatal(err)
	}
	sched := plan.SIMD
	fmt.Printf("workload: %s — %d timesteps, %d EPR-consuming moves\n\n",
		sq.Name, sched.Timesteps, len(sched.Moves))

	cfg := surfcomm.TeleportConfig{Distance: 9}
	jit := surfcomm.JITWindow(sched, cfg)
	windows := []int64{0, jit / 2, jit, 4 * jit, 16 * jit, surfcomm.PrefetchAll}
	results, err := surfcomm.SweepEPRWindows(sched, windows, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-14s %14s %14s %14s\n", "window (cyc)", "peak live EPR", "stall cycles", "overhead")
	for _, r := range results {
		label := fmt.Sprintf("%d", r.WindowCycles)
		if r.WindowCycles == surfcomm.PrefetchAll {
			label = "prefetch-all"
		}
		fmt.Printf("%-14s %14d %14d %13.1f%%\n",
			label, r.PeakLiveEPR, r.StallCycles, 100*r.LatencyOverhead)
	}

	flood := results[len(results)-1]
	best := results[2] // the JIT point
	fmt.Printf("\njust-in-time window %d: %.1fx fewer live EPR qubits than prefetch-all,\n",
		jit, float64(flood.PeakLiveEPR)/float64(best.PeakLiveEPR))
	fmt.Printf("at %.1f%% added latency (paper: up to ~24x savings at <= ~4%% latency).\n",
		100*best.LatencyOverhead)
}
