// Command sweep runs the paper's evaluation studies, one flag per study
// of the surfcomm Study registry:
//
//	-fig7   absolute space and time vs computation size (SQ, p_P=1e-8)
//	-fig8   double-defect:planar resource ratios and crossover (SQ, IM)
//	-fig9   crossover boundary across physical error rates (all apps)
//	-epr    pipelined EPR distribution window sweep (§8.1)
//
// With no study flag, those four studies run. The other studies are
// opt-in and, like the flags above, narrow the run to the selected
// studies: -table1 and -table2 print the communication-method
// comparison and the application summary, -fig6 prints the Figure 6
// braid-policy grid (every application under every policy, or one with
// -app; -verify replay-validates every recorded schedule), -decode the
// §2.3 decoding study (code-capacity failure counts and work-ops of the
// mwpm and unionfind strategies, and their work-op crossover), -modular
// the incremental-compilation study, -yield the defective-device yield
// study and -calib the calibration study (square vs heavy-hex coupling,
// uniform vs calibrated devices, live-defect survival). Selected
// studies run in registry order, whatever the flag order.
//
// The studies run on a shared surfcomm.Toolchain: the grids evaluate on
// its worker pool (-workers, default GOMAXPROCS) and results are
// gathered in deterministic cell order before printing, so the figures
// are byte-identical at any worker count — `-workers 1` is the serial
// reference. `-json FILE` additionally emits every grid cell as a
// machine-readable record; the committed BENCH_*.json artifacts are
// such records, and TestArtifactsReproduce in this package holds the
// flags that regenerate each one. `-progress` streams per-cell
// completions (study and cell label) to stderr, and an interrupt
// (Ctrl-C) cancels the run mid-grid.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"surfcomm"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	studies := surfcomm.Studies()
	selected := make([]*bool, len(studies))
	for i, st := range studies {
		selected[i] = flag.Bool(st.Name, false, st.Help)
	}
	verify := flag.Bool("verify", false, "record each -fig6 static schedule and replay-validate it")
	defectFrac := flag.String("defect-frac", "", "comma-separated defect fractions for -yield (default 0,0.02,0.05)")
	app := flag.String("app", "", "application for -fig6, -yield and -calib (default: every app for -fig6, GSE otherwise)")
	clustered := flag.Bool("clustered", false, "use clustered defects instead of random yield for -yield")
	calibPath := flag.String("calibration", "", "calibration snapshot JSON for the -calib study (default: synthetic per-cell snapshots)")
	squareOnly := flag.Bool("square-only", false, "drop the heavy-hex rows from the -calib study")
	pp := flag.Float64("pp", 1e-8, "physical error rate for -fig7/-fig8 and the -yield logical-rate estimate")
	seed := flag.Int64("seed", 1, "characterization seed")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
	jsonPath := flag.String("json", "", "write per-cell results to this JSON file (e.g. BENCH_sweep.json)")
	progress := flag.Bool("progress", false, "stream per-cell completions to stderr")
	flag.Parse()

	var names []string
	for i, st := range studies {
		if *selected[i] {
			names = append(names, st.Name)
		}
	}
	params := surfcomm.StudyParams{App: *app, Verify: *verify, Clustered: *clustered, SquareOnly: *squareOnly}
	var err error
	if params.Fractions, err = parseFracs(*defectFrac); err != nil {
		log.Fatal(err)
	}
	if *calibPath != "" {
		f, err := os.Open(*calibPath)
		if err != nil {
			log.Fatal(err)
		}
		params.Calibration, err = surfcomm.LoadCalibration(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := []surfcomm.ToolchainOption{
		surfcomm.WithSeed(*seed),
		surfcomm.WithWorkers(*workers),
		surfcomm.WithTechnology(surfcomm.Superconducting(*pp)),
	}
	if *progress {
		opts = append(opts, surfcomm.WithProgress(func(ev surfcomm.Event) {
			log.Printf("%s %s (%d/%d)", ev.Stage, ev.Cell, ev.Index+1, ev.Total)
		}))
	}
	tc, err := surfcomm.NewToolchain(opts...)
	if err != nil {
		log.Fatal(err)
	}
	records, err := tc.RunStudies(ctx, names, params, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	if *jsonPath != "" {
		if err := surfcomm.WriteSweepRecordsFile(*jsonPath, records); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %d cells to %s", len(records), *jsonPath)
	}
}

// parseFracs parses the -defect-frac list; empty selects the yield
// study's default fractions.
func parseFracs(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -defect-frac %q: %v", part, err)
		}
		out = append(out, f)
	}
	return out, nil
}
