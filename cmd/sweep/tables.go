package main

import (
	"context"
	"fmt"

	"surfcomm"
)

// runTable1 measures the defining properties of the two communication
// methods: braid latency is distance-independent (low time) but braids
// claim whole routes and bigger tiles (high space, not prefetchable);
// teleportation transit grows with distance (high time) but vanishes
// under EPR prefetch.
func runTable1(ctx context.Context, tc *surfcomm.Toolchain, records *[]surfcomm.SweepCellResult) error {
	const d = 9

	braidCycles := func(cols, a, b int) (int64, error) {
		c := surfcomm.NewCircuit("pair", cols)
		c.Append(surfcomm.OpCNOT, a, b)
		place := surfcomm.RowMajorPlacement(cols)
		plan, err := tc.Compile(ctx, surfcomm.BraidBackend{}, c, func(t *surfcomm.Target) {
			t.Distance = d
			t.Policy = surfcomm.Policy1
			t.Placement = place
		})
		if err != nil {
			return 0, err
		}
		return plan.Cycles, nil
	}
	nearBraid, err := braidCycles(8, 0, 1)
	if err != nil {
		return err
	}
	farBraid, err := braidCycles(8, 0, 7)
	if err != nil {
		return err
	}

	// The EPR factory sits at the bottom-right of the region grid; a
	// "near" pair adjoins it, a "far" pair sits at the opposite corner.
	dist := surfcomm.NewEPRDistributor()
	teleportStall := func(from, to int, window int64) (int64, error) {
		sched := &surfcomm.SIMDSchedule{
			Config:    surfcomm.SIMDConfig{Regions: 16, Width: 8},
			Timesteps: 8,
			Moves:     []surfcomm.SIMDMove{{Timestep: 5, Qubit: 0, From: from, To: to}},
		}
		r, err := dist.Distribute(sched, window, surfcomm.TeleportConfig{Distance: d})
		if err != nil {
			return 0, err
		}
		return r.StallCycles, nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	nearTele, err := teleportStall(14, 15, 0)
	if err != nil {
		return err
	}
	farTele, err := teleportStall(0, 1, 0)
	if err != nil {
		return err
	}
	hiddenTele, err := teleportStall(0, 1, surfcomm.PrefetchAll)
	if err != nil {
		return err
	}

	fmt.Printf("Table 1: communication-method tradeoffs (measured, d = %d)\n", d)
	fmt.Println("----------------------------------------------------------------------")
	fmt.Printf("%-14s %-22s %-28s %s\n", "Method", "Space (qubits/tile)", "Time (EC cycles)", "Prefetchable?")
	fmt.Printf("%-14s %-22d transit near=%-3d far=%-6d yes (JIT stall=%d)\n",
		"Teleportation", surfcomm.PlanarTileQubits(d), nearTele, farTele, hiddenTele)
	fmt.Printf("%-14s %-22d braid   near=%-3d far=%-6d no (claims whole route)\n",
		"Braiding", surfcomm.DoubleDefectTileQubits(d), nearBraid, farBraid)
	fmt.Println()
	fmt.Println("Planar/teleport: low space, distance-dependent latency, prefetchable.")
	fmt.Println("Double-defect/braid: high space, distance-independent latency, not prefetchable.")

	*records = append(*records,
		surfcomm.SweepCellResult{Study: "table1", Cell: "teleportation", Seed: tc.Seed(),
			Metrics: map[string]float64{
				"tile_qubits": float64(surfcomm.PlanarTileQubits(d)),
				"near_cycles": float64(nearTele),
				"far_cycles":  float64(farTele),
				"jit_stall":   float64(hiddenTele),
			}},
		surfcomm.SweepCellResult{Study: "table1", Cell: "braiding", Seed: tc.Seed(),
			Metrics: map[string]float64{
				"tile_qubits": float64(surfcomm.DoubleDefectTileQubits(d)),
				"near_cycles": float64(nearBraid),
				"far_cycles":  float64(farBraid),
			}},
	)
	return nil
}

// runTable2 prints the frontend characterization of the benchmark
// applications with their parallelism factors.
func runTable2(ctx context.Context, tc *surfcomm.Toolchain, records *[]surfcomm.SweepCellResult) error {
	workloads := surfcomm.Table2Suite()
	estimates, err := tc.Estimate(ctx, workloads)
	if err != nil {
		return err
	}
	fmt.Println("Table 2: benchmark applications (measured)")
	fmt.Println("------------------------------------------------------------------------------------------")
	fmt.Printf("%-8s %-10s %-10s %-10s %-10s %-12s %s\n",
		"App", "Qubits", "Ops", "T-count", "2q ops", "Depth", "Parallelism")
	for i, w := range workloads {
		e := estimates[i]
		fmt.Printf("%-8s %-10d %-10d %-10d %-10d %-12d %.1f\n",
			w.Name, e.LogicalQubits, e.LogicalOps, e.TCount, e.TwoQubitOps, e.CriticalPath, e.Parallelism)
		*records = append(*records, surfcomm.SweepCellResult{
			Study: "table2", Cell: w.Name, Seed: tc.Seed(),
			Metrics: map[string]float64{
				"qubits":      float64(e.LogicalQubits),
				"ops":         float64(e.LogicalOps),
				"t_count":     float64(e.TCount),
				"two_q_ops":   float64(e.TwoQubitOps),
				"depth":       float64(e.CriticalPath),
				"parallelism": e.Parallelism,
			},
		})
	}
	fmt.Println()
	fmt.Println("Paper's parallelism factors: GSE 1.2, SQ 1.5, SHA-1 29, IM 66.")
	return nil
}
