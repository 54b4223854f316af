// Braid priority policies (paper §6.3, Figure 6): simulate the Ising
// model on the tiled double-defect architecture under all seven
// policies and watch the schedule approach the critical path as the
// heuristics stack up.
package main

import (
	"context"
	"fmt"
	"log"

	"surfcomm"
)

func main() {
	log.SetFlags(0)

	im, err := surfcomm.NewIsing(surfcomm.IsingConfig{N: 48, Steps: 2}, true)
	if err != nil {
		log.Fatal(err)
	}
	est, err := surfcomm.EstimateCircuit(im)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %s — %d ops, parallelism %.1f\n\n", im.Name, est.LogicalOps, est.Parallelism)

	fmt.Printf("%-10s %28s %14s %10s\n", "policy", "schedule/critical-path", "utilization", "adaptive")
	tc, err := surfcomm.NewToolchain(surfcomm.WithDistance(9), surfcomm.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	var base, last float64
	for _, p := range surfcomm.AllBraidPolicies {
		plan, err := tc.Compile(context.Background(), surfcomm.BraidBackend{}, im,
			func(t *surfcomm.Target) { t.Policy = p })
		if err != nil {
			log.Fatal(err)
		}
		r := plan.Braid
		if p == surfcomm.Policy0 {
			base = r.Ratio
		}
		last = r.Ratio // Policy 6 comes last
		bar := ""
		for i := 0; i < int(r.Ratio*8); i++ {
			bar += "#"
		}
		fmt.Printf("%-10s %6.2f %-21s %13.1f%% %10d\n", p, r.Ratio, bar, 100*r.AvgUtilization, r.AdaptiveRoutes)
	}
	fmt.Printf("\nPolicy 6 improves on Policy 0 by %.1fx for this parallel workload.\n", base/last)
}
