// Crossover analysis (paper §7.2-7.3, Figures 8 and 9): characterize a
// serial and a parallel application, then locate the computation size
// at which double-defect codes overtake planar codes — and how that
// boundary moves with device error rate.
package main

import (
	"context"
	"fmt"
	"log"

	"surfcomm"
)

func main() {
	log.SetFlags(0)

	gse, err := surfcomm.NewGSE(surfcomm.GSEConfig{M: 10, Steps: 2})
	if err != nil {
		log.Fatal(err)
	}
	im, err := surfcomm.NewIsing(surfcomm.IsingConfig{N: 64, Steps: 2}, true)
	if err != nil {
		log.Fatal(err)
	}
	tc, err := surfcomm.NewToolchain(surfcomm.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	models, err := tc.Characterize(context.Background(), []surfcomm.Workload{
		{Name: "GSE", Circuit: gse}, // serial
		{Name: "IM", Circuit: im},   // parallel
	})
	if err != nil {
		log.Fatal(err)
	}

	for _, m := range models {
		fmt.Printf("%s: parallelism %.1f, move fraction %.2f, braid congestion %.2f\n",
			m.Name, m.Parallelism, m.MoveFraction, m.CongestionDD)

		fmt.Printf("  %-12s %-6s %-10s %-10s %-12s\n", "K", "d", "qubits", "time", "space-time")
		for _, k := range []float64{1e2, 1e6, 1e10, 1e14} {
			dp, err := surfcomm.Evaluate(m, k, 1e-5)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-12.0e %-6d %-10.2f %-10.3f %-12.3f\n",
				k, dp.Distance, dp.QubitsRatio, dp.TimeRatio, dp.SpaceTimeRatio)
		}
		fmt.Printf("  crossover boundary K*(p_P):")
		for _, p := range []float64{1e-8, 1e-6, 1e-4, 1e-3} {
			if k, ok := surfcomm.Crossover(m, p); ok {
				fmt.Printf("  %.0e→%.1e", p, k)
			} else {
				fmt.Printf("  %.0e→planar", p)
			}
		}
		fmt.Println()
		fmt.Println()
	}
	fmt.Println("Ratios are double-defect relative to planar; the parallel app's boundary")
	fmt.Println("sits higher because braid congestion keeps planar codes favorable longer.")
}
