package teleport

import (
	"context"
	"testing"

	"surfcomm/internal/apps"
	"surfcomm/internal/simd"
)

// TestGoldenDistributions pins the distribution results of the suite
// applications (SHA-1 excluded for runtime; its cells are drift-guarded
// through BENCH_planar.json) bit-identically to the pre-refactor
// map-based simulator: the ring calendar, pooled halves, and dense link
// tables must reproduce every stall, peak, and average exactly.
func TestGoldenDistributions(t *testing.T) {
	golden := map[string][4]Result{
		"GSE": {
			{WindowCycles: 0, BaseCycles: 9720, StallCycles: 7, ScheduleCycles: 9727, TotalPairs: 678, PeakLiveEPR: 20, AvgLiveEPR: 2.2304924437133753, LatencyOverhead: 0.000720164609053498},
			{WindowCycles: 9, BaseCycles: 9720, StallCycles: 0, ScheduleCycles: 9720, TotalPairs: 678, PeakLiveEPR: 20, AvgLiveEPR: 2.511111111111111, LatencyOverhead: 0},
			{WindowCycles: 19, BaseCycles: 9720, StallCycles: 0, ScheduleCycles: 9720, TotalPairs: 678, PeakLiveEPR: 40, AvgLiveEPR: 3.88559670781893, LatencyOverhead: 0},
			{WindowCycles: PrefetchAll, BaseCycles: 9720, StallCycles: 0, ScheduleCycles: 9720, TotalPairs: 678, PeakLiveEPR: 1356, AvgLiveEPR: 569.4314814814815, LatencyOverhead: 0},
		},
		"SQ": {
			{WindowCycles: 0, BaseCycles: 3708, StallCycles: 8, ScheduleCycles: 3716, TotalPairs: 730, PeakLiveEPR: 28, AvgLiveEPR: 6.666307857911733, LatencyOverhead: 0.002157497303128371},
			{WindowCycles: 9, BaseCycles: 3708, StallCycles: 0, ScheduleCycles: 3708, TotalPairs: 730, PeakLiveEPR: 28, AvgLiveEPR: 7.087378640776699, LatencyOverhead: 0},
			{WindowCycles: 19, BaseCycles: 3708, StallCycles: 0, ScheduleCycles: 3708, TotalPairs: 730, PeakLiveEPR: 48, AvgLiveEPR: 11.006472491909385, LatencyOverhead: 0},
			{WindowCycles: PrefetchAll, BaseCycles: 3708, StallCycles: 0, ScheduleCycles: 3708, TotalPairs: 730, PeakLiveEPR: 1460, AvgLiveEPR: 687.6844660194175, LatencyOverhead: 0},
		},
		"IM": {
			{WindowCycles: 0, BaseCycles: 1341, StallCycles: 229, ScheduleCycles: 1570, TotalPairs: 2430, PeakLiveEPR: 1316, AvgLiveEPR: 595.028025477707, LatencyOverhead: 0.17076808351976136},
			{WindowCycles: 9, BaseCycles: 1341, StallCycles: 220, ScheduleCycles: 1561, TotalPairs: 2430, PeakLiveEPR: 1316, AvgLiveEPR: 598.4586803331198, LatencyOverhead: 0.16405667412378822},
			{WindowCycles: 19, BaseCycles: 1341, StallCycles: 210, ScheduleCycles: 1551, TotalPairs: 2430, PeakLiveEPR: 1316, AvgLiveEPR: 607.2778852353321, LatencyOverhead: 0.15659955257270694},
			{WindowCycles: PrefetchAll, BaseCycles: 1341, StallCycles: 4, ScheduleCycles: 1345, TotalPairs: 2430, PeakLiveEPR: 4860, AvgLiveEPR: 2484, LatencyOverhead: 0.002982848620432513},
		},
	}
	d := NewDistributor() // shared scratch must not leak state across runs
	for _, w := range apps.Fig6Suite() {
		want, ok := golden[w.Name]
		if !ok {
			continue
		}
		sched, err := simd.RunContext(context.Background(), w.Circuit, simd.ConfigFor(w.Circuit.NumQubits, 1))
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Distance: 9}
		jit := JITWindow(sched, cfg)
		for i, win := range []int64{0, jit / 2, jit, PrefetchAll} {
			got, err := d.DistributeContext(context.Background(), sched, win, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[i] {
				t.Errorf("%s window %d drifted:\n got %+v\nwant %+v", w.Name, win, got, want[i])
			}
		}
	}
}
