// Yieldsweep: compile one workload onto progressively more defective
// devices and watch the communication cost climb — the scenario the
// pluggable device-topology layer exists for. Real superconducting
// chips have dead tiles, broken couplers, and slow links; this example
// compares the perfect grid against random-yield and clustered-defect
// realizations of the same machine, then runs the deterministic yield
// study through the Toolchain.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"

	"surfcomm"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	c, err := surfcomm.NewGSE(surfcomm.GSEConfig{M: 10, Steps: 2})
	if err != nil {
		log.Fatal(err)
	}

	// One compile per device model, same circuit, same seed: any cost
	// difference is the topology's doing.
	devices := []*surfcomm.Device{
		surfcomm.PerfectDevice(),
		surfcomm.RandomYieldDevice(0.03, 7),
		surfcomm.RandomYieldDevice(0.08, 7),
		surfcomm.ClusteredDefectsDevice(0.08, 7),
	}
	fmt.Println("braid backend vs. device topology (GSE, d=9, Policy 6):")
	fmt.Printf("  %-28s %10s %8s %10s\n", "device", "cycles", "ratio", "adaptive")
	for _, dev := range devices {
		tc, err := surfcomm.NewToolchain(surfcomm.WithSeed(1), surfcomm.WithDevice(dev))
		if err != nil {
			log.Fatal(err)
		}
		plan, err := tc.Compile(ctx, surfcomm.BraidBackend{}, c)
		if errors.Is(err, surfcomm.ErrUnroutable) {
			// A defect map can cut qubits off entirely; compiles fail
			// fast instead of hanging.
			fmt.Printf("  %-28s %10s\n", dev, "unroutable")
			continue
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-28s %10d %8.3f %10d\n",
			plan.Device, plan.Cycles, plan.Braid.Ratio, plan.Braid.AdaptiveRoutes)
	}

	// The systematic version: the yield study sweeps defect fractions
	// with independent device realizations per fraction and prints the
	// same table as `cmd/sweep -yield`. Per-cell seeds derive from the
	// toolchain seed, so the records are bit-identical at any worker
	// count.
	tc, err := surfcomm.NewToolchain(surfcomm.WithSeed(1), surfcomm.WithWorkers(4))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	if _, err := tc.RunStudies(ctx, []string{"yield"}, surfcomm.StudyParams{}, os.Stdout); err != nil {
		log.Fatal(err)
	}
}
