// Quickstart: build a small logical circuit, run the compilation
// frontend, and execute it on both error-corrected architectures —
// the tiled double-defect machine (braids) and the Multi-SIMD planar
// machine (teleportation) — printing the space-time costs side by side.
package main

import (
	"context"
	"fmt"
	"log"

	"surfcomm"
)

func main() {
	log.SetFlags(0)

	// A toy phase-estimation-style kernel: an ancilla interrogates four
	// data qubits through controlled rotations.
	b := surfcomm.NewBuilder("quickstart", 5)
	b.PrepX(0)
	for q := 1; q <= 4; q++ {
		b.H(q)
		b.CRz(0, q, 0.25*float64(q))
	}
	for q := 1; q <= 4; q++ {
		b.CNOT(q, (q%4)+1)
	}
	b.MeasX(0)
	c := b.Circuit

	est, err := surfcomm.EstimateCircuit(c)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("frontend estimate:")
	fmt.Printf("  %s\n\n", est)

	// One toolchain compiles onto both architectures; seed 0 drives
	// layout and partitioning on both.
	ctx := context.Background()
	tc, err := surfcomm.NewToolchain(surfcomm.WithSeed(0))
	if err != nil {
		log.Fatal(err)
	}

	// Double-defect backend: braided communication under the combined
	// priority policy (the toolchain default, Policy 6, at d=9).
	braidPlan, err := tc.Compile(ctx, surfcomm.BraidBackend{}, c)
	if err != nil {
		log.Fatal(err)
	}
	braidRes := braidPlan.Braid
	fmt.Println("double-defect (braids, Policy 6):")
	fmt.Printf("  schedule %d cycles, critical path %d, ratio %.2f\n",
		braidRes.ScheduleCycles, braidRes.CriticalPathCycles, braidRes.Ratio)
	fmt.Printf("  mesh utilization %.1f%%, %d tiles, %d physical qubits\n\n",
		100*braidRes.AvgUtilization, braidRes.Tiles, braidRes.PhysicalQubits)

	// Planar backend: Multi-SIMD schedule plus just-in-time EPR
	// distribution, on a 4-region machine of width 8.
	planarPlan, err := tc.Compile(ctx, surfcomm.PlanarBackend{}, c, func(t *surfcomm.Target) {
		t.SIMD = surfcomm.SIMDConfig{Regions: 4, Width: 8}
	})
	if err != nil {
		log.Fatal(err)
	}
	sched, epr := planarPlan.SIMD, planarPlan.EPR
	fmt.Println("planar (Multi-SIMD + teleportation, JIT window):")
	fmt.Printf("  %d timesteps (%d critical), %d teleports, %d magic deliveries\n",
		sched.Timesteps, sched.CriticalTimesteps, sched.Teleports, sched.MagicMoves)
	fmt.Printf("  schedule %d cycles (stalls %d), peak live EPR qubits %d\n",
		epr.ScheduleCycles, epr.StallCycles, epr.PeakLiveEPR)
}
