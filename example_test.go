package surfcomm_test

import (
	"context"
	"fmt"
	"log"

	"surfcomm"
)

// Example_toolchain compiles one workload end to end through the
// option-configured Toolchain: characterize, compile on the braid
// backend, and cost the design point.
func Example_toolchain() {
	tc, err := surfcomm.NewToolchain(
		surfcomm.WithDistance(5),
		surfcomm.WithSeed(1),
		surfcomm.WithPolicy(surfcomm.Policy6),
	)
	if err != nil {
		log.Fatal(err)
	}

	circ, err := surfcomm.NewIsing(surfcomm.IsingConfig{N: 8, Steps: 1}, true)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := tc.Compile(context.Background(), surfcomm.BraidBackend{}, circ)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("backend=%s cycles=%d braids=%d\n", plan.Backend, plan.Cycles, plan.CommOps)

	m, err := tc.Characterize(context.Background(), []surfcomm.Workload{{Name: "IM", Circuit: circ}})
	if err != nil {
		log.Fatal(err)
	}
	dp, err := surfcomm.Evaluate(m[0], 1e6, 1e-8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("design point: d=%d planar-favored=%t\n", dp.Distance, dp.SpaceTimeRatio > 1)
	// Output:
	// backend=braid cycles=760 braids=272
	// design point: d=3 planar-favored=true
}

// Example_backendComparison compiles the same circuit through all
// three communication backends — the paper's braiding vs teleportation
// vs lattice surgery comparison behind one interface.
func Example_backendComparison() {
	tc, err := surfcomm.NewToolchain(surfcomm.WithDistance(5), surfcomm.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	circ, err := surfcomm.NewIsing(surfcomm.IsingConfig{N: 8, Steps: 1}, true)
	if err != nil {
		log.Fatal(err)
	}
	for _, b := range surfcomm.Backends() {
		plan, err := tc.Compile(context.Background(), b, circ)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s cycles=%-6d comm-ops=%d\n", plan.Backend, plan.Cycles, plan.CommOps)
	}
	// Output:
	// braid    cycles=760    comm-ops=272
	// planar   cycles=298    comm-ops=128
	// surgery  cycles=1681   comm-ops=272
}
