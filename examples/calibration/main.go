// Calibration: drive the toolchain with a device model measured from a
// real chip instead of the uniform ideal. A versioned calibration
// snapshot (per-qubit T1/T2 and readout error, per-coupler gate error
// and latency) realizes as heterogeneous link weights and per-tile
// error rates; a heavy-hexagon coupling pattern drops the vertical
// couplers IBM-style chips do not ship; a live-defect schedule kills
// couplers mid-execution and the braid engine re-routes in-flight
// braids around the holes. The same three knobs reach the daemon as
// `surfcommd -calibration FILE`, the per-request "calibration" field on
// /compile (the snapshot digest splits plan-cache lines), and the
// calibration digest+age block on /healthz that surfrouter relays.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"surfcomm"
)

// snapshot is a miniature hand-written calibration in the on-disk
// schema: version is fixed at 1, times are microseconds, latency is a
// multiplier relative to the chip's fastest coupler (omitted = 1).
const snapshot = `{
  "version": 1,
  "name": "example-chip",
  "taken": "2026-08-01T00:00:00Z",
  "qubits": [
    {"row": 0, "col": 0, "t1_us": 180, "t2_us": 120, "readout_error": 0.003},
    {"row": 0, "col": 1, "t1_us": 95,  "t2_us": 60,  "readout_error": 0.012}
  ],
  "couplers": [
    {"a": [0, 0], "b": [0, 1], "gate_error": 0.006},
    {"a": [0, 1], "b": [0, 2], "gate_error": 0.021, "latency": 2.0}
  ]
}`

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	// The schema, parsed and priced: each qubit entry folds into one
	// effective per-cycle error rate (readout + decoherence over one
	// syndrome cycle), each coupler into a link weight and error rate.
	mini, err := surfcomm.ParseCalibration([]byte(snapshot))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot %q: %d qubits, %d couplers, digest %.12s…\n",
		mini.Name, len(mini.Qubits), len(mini.Couplers), mini.Digest())
	for _, q := range mini.Qubits {
		fmt.Printf("  qubit (%d,%d): T1=%gµs T2=%gµs readout=%g → p_eff=%.3e\n",
			q.Row, q.Col, q.T1Us, q.T2Us, q.ReadoutError, q.EffectiveErrorRate())
	}

	// One compile per device model, same circuit, same seed. The
	// synthetic snapshot is deterministic in (seed, dims); 12×12 covers
	// the junction grid this workload realizes (out-of-grid entries are
	// ignored, like a snapshot of a larger physical chip).
	c, err := surfcomm.NewGSE(surfcomm.GSEConfig{M: 10, Steps: 2})
	if err != nil {
		log.Fatal(err)
	}
	cal := surfcomm.SyntheticCalibration(7, 12, 12)
	devices := []*surfcomm.Device{
		surfcomm.PerfectDevice(),
		surfcomm.PerfectDevice().WithCalibration(cal),
		surfcomm.HeavyHexDevice(7),
		surfcomm.HeavyHexDevice(7).WithCalibration(cal),
	}
	fmt.Println("\nbraid backend vs. device model (GSE, d=9, Policy 6):")
	fmt.Printf("  %-42s %8s %8s %10s\n", "device", "cycles", "ratio", "adaptive")
	for _, dev := range devices {
		tc, err := surfcomm.NewToolchain(surfcomm.WithSeed(1), surfcomm.WithDevice(dev))
		if err != nil {
			log.Fatal(err)
		}
		plan, err := tc.Compile(ctx, surfcomm.BraidBackend{}, c)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-42s %8d %8.3f %10d\n",
			plan.Device, plan.Cycles, plan.Braid.Ratio, plan.Braid.AdaptiveRoutes)
	}

	// Live defects: couplers die mid-execution. Braids in flight over a
	// dead coupler are torn down and re-placed around the hole
	// (Reroutes counts them); ErrUnroutable fires only if the surviving
	// fabric actually disconnects.
	sched := surfcomm.RandomDefectSchedule(8, 8, 4, 4, 6000)
	tc, err := surfcomm.NewToolchain(surfcomm.WithSeed(1), surfcomm.WithDefectSchedule(sched))
	if err != nil {
		log.Fatal(err)
	}
	plan, err := tc.Compile(ctx, surfcomm.BraidBackend{}, c)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlive defects (%d coupler deaths): cycles=%d reroutes=%d\n",
		len(sched.Events), plan.Cycles, plan.Braid.Reroutes)

	// The systematic version: the calib study sweeps coupling topology ×
	// {uniform, calibrated, live-defect} cells with derived per-cell
	// seeds, and reports the per-tile logical-rate spread that local
	// calibration opens up (on a real chip the worst tile, not the
	// average, bounds the computation). `cmd/sweep -calib` prints the
	// same table and commits its records as BENCH_calib.json.
	tc, err = surfcomm.NewToolchain(surfcomm.WithSeed(1), surfcomm.WithWorkers(4))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	if _, err := tc.RunStudies(ctx, []string{"calib"}, surfcomm.StudyParams{}, os.Stdout); err != nil {
		log.Fatal(err)
	}
}
