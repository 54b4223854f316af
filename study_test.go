package surfcomm_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"surfcomm"
	"surfcomm/internal/device"
)

// TestStudiesWorkerParity runs every registered study through
// RunStudies on a serial default toolchain and on four workers with the
// toolchain's device options set, and compares the serialized records
// and the printed table byte for byte: neither the worker count nor
// WithDevice, WithCalibration and WithDefectSchedule may change a
// study, which fixes its own devices. It also checks that every record
// names the device its cell ran on, and that every progress event
// carries the label its cell's records start with and the study's name,
// or "characterize" for a characterization record. Grids shrink to
// distance 5; Figures 7–9 share one run.
func TestStudiesWorkerParity(t *testing.T) {
	const realized = "realized" // each cell names its own realized device
	devOpts := []surfcomm.ToolchainOption{
		surfcomm.WithDevice(surfcomm.HeavyHexDevice(7)),
		surfcomm.WithCalibration(surfcomm.SyntheticCalibration(7, 40, 40)),
		surfcomm.WithDefectSchedule(surfcomm.RandomDefectSchedule(7, 40, 40, 3, 50)),
	}
	cases := map[string]struct {
		params surfcomm.StudyParams
		device string
	}{
		"table1":         {device: ""}, // Tables 1–2 predate the device field
		"table2":         {device: ""},
		"fig6":           {params: surfcomm.StudyParams{Verify: true}, device: device.PresetPerfect},
		"fig7+fig8+fig9": {device: device.PresetPerfect},
		"epr":            {device: device.PresetPerfect},
		"decode":         {device: device.PresetPerfect},
		"modular":        {device: device.PresetPerfect},
		"yield":          {params: surfcomm.StudyParams{Clustered: true}, device: realized},
		"calib":          {device: realized},
	}
	// One run per study, except Figures 7–9, which share one
	// characterization and so one run.
	var runs [][]string
	var figures []string
	for _, st := range surfcomm.Studies() {
		if st.Name == "fig7" || st.Name == "fig8" || st.Name == "fig9" {
			figures = append(figures, st.Name)
			continue
		}
		runs = append(runs, []string{st.Name})
	}
	for _, names := range append(runs, figures) {
		name := strings.Join(names, "+")
		c, ok := cases[name]
		if !ok {
			t.Errorf("registered study %q has no worker-parity case", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			run := func(workers int, extra ...surfcomm.ToolchainOption) (records, table []byte) {
				var events []surfcomm.Event // delivered serialized
				opts := append([]surfcomm.ToolchainOption{surfcomm.WithDistance(5), surfcomm.WithWorkers(workers),
					surfcomm.WithProgress(func(ev surfcomm.Event) { events = append(events, ev) })}, extra...)
				tc, err := surfcomm.NewToolchain(opts...)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				recs, err := tc.RunStudies(context.Background(), names, c.params, &out)
				if err != nil {
					t.Fatal(err)
				}
				if len(recs) == 0 || out.Len() == 0 {
					t.Fatalf("workers=%d: %d records, %d table bytes", workers, len(recs), out.Len())
				}
				for _, r := range recs {
					if r.Study == "" || r.Cell == "" {
						t.Errorf("record without identity: %+v", r)
					}
					if c.device == realized && r.Device == "" || c.device != realized && r.Device != c.device {
						t.Errorf("%s: device %q, want %q", r.Cell, r.Device, c.device)
					}
				}
				characterize := func(ev surfcomm.Event) bool { return ev.Stage == "characterize" }
				for _, ev := range events {
					labelled := slices.ContainsFunc(recs, func(r surfcomm.SweepCellResult) bool {
						if characterize(ev) && r.Study != "characterization" {
							return false
						}
						return r.Cell == ev.Cell || strings.HasPrefix(r.Cell, ev.Cell+"/")
					})
					if !labelled || !characterize(ev) && !slices.Contains(names, ev.Stage) {
						t.Errorf("event %s %q names no record of the study", ev.Stage, ev.Cell)
					}
				}
				table = out.Bytes()
				if name == "modular" {
					recs, table = stripWallClock(recs, table)
				}
				if records, err = json.Marshal(recs); err != nil {
					t.Fatal(err)
				}
				return records, table
			}
			serialRecs, serialTable := run(1)
			pooledRecs, pooledTable := run(4, devOpts...)
			if !bytes.Equal(serialRecs, pooledRecs) {
				t.Errorf("records differ between the serial default toolchain and the pooled one with device options:\n%s\nvs\n%s", serialRecs, pooledRecs)
			}
			if !bytes.Equal(serialTable, pooledTable) {
				t.Errorf("tables differ between the serial default toolchain and the pooled one with device options:\n%s\nvs\n%s", serialTable, pooledTable)
			}
		})
	}
}

// stripWallClock drops the modular study's machine-local timings: the
// wall_* metrics and the table's last (wall speedup) column.
func stripWallClock(recs []surfcomm.SweepCellResult, table []byte) ([]surfcomm.SweepCellResult, []byte) {
	for _, r := range recs {
		for key := range r.Metrics {
			if strings.HasPrefix(key, "wall_") {
				delete(r.Metrics, key)
			}
		}
	}
	var out bytes.Buffer
	for _, line := range strings.Split(string(table), "\n") {
		if f := strings.Fields(line); len(f) > 1 {
			line = strings.Join(f[:len(f)-1], " ")
		}
		out.WriteString(line + "\n")
	}
	return recs, out.Bytes()
}

// TestDecodeStudyMatchesMonteCarlo checks that the decode study
// measures through the public Monte Carlo: every parity record at
// d <= 5 must be what MeasureLogicalErrorRate returns at the record's
// seed and strategy, failures and work-ops alike.
func TestDecodeStudyMatchesMonteCarlo(t *testing.T) {
	ctx := context.Background()
	tc, err := surfcomm.NewToolchain()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := tc.RunStudies(ctx, []string{"decode"}, surfcomm.StudyParams{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checked := map[string]int{}
	for _, rec := range recs {
		var d int
		var p float64
		var strategy string
		if _, err := fmt.Sscanf(strings.ReplaceAll(rec.Cell, "/", " "), "d=%d p=%g %s", &d, &p, &strategy); err != nil {
			continue // the crossover record
		}
		if d > 5 {
			continue
		}
		mc, err := surfcomm.NewToolchain(surfcomm.WithSeed(rec.Seed), surfcomm.WithDecoderStrategy(rec.Strategy))
		if err != nil {
			t.Fatal(err)
		}
		r, err := mc.MeasureLogicalErrorRate(ctx, d, p, 400)
		if err != nil {
			t.Fatal(err)
		}
		if float64(r.Failures) != rec.Metrics["failures"] || float64(r.WorkOps) != rec.Metrics["workops"] {
			t.Errorf("%s: MeasureLogicalErrorRate gives %d failures and %d work-ops, the study recorded %v and %v",
				rec.Cell, r.Failures, r.WorkOps, rec.Metrics["failures"], rec.Metrics["workops"])
		}
		checked[rec.Strategy]++
	}
	for _, strategy := range []string{surfcomm.DecoderStrategyMWPM, surfcomm.DecoderStrategyUnionFind} {
		if checked[strategy] != 6 {
			t.Errorf("%s: checked %d parity records at d <= 5, want 6", strategy, checked[strategy])
		}
	}
}

// TestRunStudiesUnknownStudy asserts an unknown study name fails with
// ErrBadConfig before anything runs or prints.
func TestRunStudiesUnknownStudy(t *testing.T) {
	tc, err := surfcomm.NewToolchain()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	_, err = tc.RunStudies(context.Background(), []string{"table1", "fig10"}, surfcomm.StudyParams{}, &out)
	if !errors.Is(err, surfcomm.ErrBadConfig) || !strings.Contains(err.Error(), `"fig10"`) {
		t.Fatalf("err = %v, want ErrBadConfig naming fig10", err)
	}
	if out.Len() != 0 {
		t.Errorf("printed before failing:\n%s", out.Bytes())
	}
}
