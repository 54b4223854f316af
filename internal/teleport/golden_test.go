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

// TestGoldenDistributionsByRegionCount pins GSE distributions on the
// all-alive grid at region counts the suite shapes never reach (the
// Fig. 6 shapes use 4 regions, BENCH_planar and Table 1 use 16): from
// the degenerate one-region machine, whose only traffic is magic-state
// delivery, to a 64-region 9×8 grid whose halves cross up to 15 hops.
// One Distributor serves every shape, so a stale routing table from a
// previous grid would show as drift.
func TestGoldenDistributionsByRegionCount(t *testing.T) {
	golden := map[int][4]Result{
		1: {
			{WindowCycles: 0, BaseCycles: 9729, StallCycles: 8, ScheduleCycles: 9737, TotalPairs: 608, PeakLiveEPR: 20, AvgLiveEPR: 2.123035842662011, LatencyOverhead: 0.0008222838935142358},
			{WindowCycles: 8, BaseCycles: 9729, StallCycles: 0, ScheduleCycles: 9729, TotalPairs: 608, PeakLiveEPR: 20, AvgLiveEPR: 2.1247815808407853, LatencyOverhead: 0},
			{WindowCycles: 17, BaseCycles: 9729, StallCycles: 0, ScheduleCycles: 9729, TotalPairs: 608, PeakLiveEPR: 40, AvgLiveEPR: 3.2332202692979752, LatencyOverhead: 0},
			{WindowCycles: PrefetchAll, BaseCycles: 9729, StallCycles: 0, ScheduleCycles: 9729, TotalPairs: 608, PeakLiveEPR: 1216, AvgLiveEPR: 509.890841813136, LatencyOverhead: 0},
		},
		2: {
			{WindowCycles: 0, BaseCycles: 9720, StallCycles: 6, ScheduleCycles: 9726, TotalPairs: 675, PeakLiveEPR: 20, AvgLiveEPR: 2.082048118445404, LatencyOverhead: 0.0006172839506172839},
			{WindowCycles: 8, BaseCycles: 9720, StallCycles: 0, ScheduleCycles: 9720, TotalPairs: 675, PeakLiveEPR: 20, AvgLiveEPR: 2.361111111111111, LatencyOverhead: 0},
			{WindowCycles: 17, BaseCycles: 9720, StallCycles: 0, ScheduleCycles: 9720, TotalPairs: 675, PeakLiveEPR: 40, AvgLiveEPR: 3.594650205761317, LatencyOverhead: 0},
			{WindowCycles: PrefetchAll, BaseCycles: 9720, StallCycles: 0, ScheduleCycles: 9720, TotalPairs: 675, PeakLiveEPR: 1350, AvgLiveEPR: 569.0092592592592, LatencyOverhead: 0},
		},
		8: {
			{WindowCycles: 0, BaseCycles: 9720, StallCycles: 10, ScheduleCycles: 9730, TotalPairs: 679, PeakLiveEPR: 40, AvgLiveEPR: 2.6517985611510793, LatencyOverhead: 0.00102880658436214},
			{WindowCycles: 11, BaseCycles: 9720, StallCycles: 1, ScheduleCycles: 9721, TotalPairs: 679, PeakLiveEPR: 40, AvgLiveEPR: 2.929533998559819, LatencyOverhead: 0.00010288065843621399},
			{WindowCycles: 23, BaseCycles: 9720, StallCycles: 3, ScheduleCycles: 9723, TotalPairs: 679, PeakLiveEPR: 40, AvgLiveEPR: 4.859611231101512, LatencyOverhead: 0.00030864197530864197},
			{WindowCycles: PrefetchAll, BaseCycles: 9720, StallCycles: 1, ScheduleCycles: 9721, TotalPairs: 679, PeakLiveEPR: 1358, AvgLiveEPR: 569.5829647155642, LatencyOverhead: 0.00010288065843621399},
		},
		32: {
			{WindowCycles: 0, BaseCycles: 9711, StallCycles: 22, ScheduleCycles: 9733, TotalPairs: 679, PeakLiveEPR: 40, AvgLiveEPR: 4.3252851125038525, LatencyOverhead: 0.0022654721449902175},
			{WindowCycles: 17, BaseCycles: 9711, StallCycles: 13, ScheduleCycles: 9724, TotalPairs: 679, PeakLiveEPR: 60, AvgLiveEPR: 5.43006993006993, LatencyOverhead: 0.0013386880856760374},
			{WindowCycles: 35, BaseCycles: 9711, StallCycles: 13, ScheduleCycles: 9724, TotalPairs: 679, PeakLiveEPR: 80, AvgLiveEPR: 7.890374331550802, LatencyOverhead: 0.0013386880856760374},
			{WindowCycles: PrefetchAll, BaseCycles: 9711, StallCycles: 13, ScheduleCycles: 9724, TotalPairs: 679, PeakLiveEPR: 1358, AvgLiveEPR: 569.9742904154668, LatencyOverhead: 0.0013386880856760374},
		},
		64: {
			{WindowCycles: 0, BaseCycles: 9711, StallCycles: 30, ScheduleCycles: 9741, TotalPairs: 679, PeakLiveEPR: 60, AvgLiveEPR: 5.437018786572221, LatencyOverhead: 0.0030892801977139327},
			{WindowCycles: 21, BaseCycles: 9711, StallCycles: 21, ScheduleCycles: 9732, TotalPairs: 679, PeakLiveEPR: 60, AvgLiveEPR: 7.091861898890259, LatencyOverhead: 0.002162496138399753},
			{WindowCycles: 43, BaseCycles: 9711, StallCycles: 22, ScheduleCycles: 9733, TotalPairs: 679, PeakLiveEPR: 100, AvgLiveEPR: 10.222130894893661, LatencyOverhead: 0.0022654721449902175},
			{WindowCycles: PrefetchAll, BaseCycles: 9711, StallCycles: 21, ScheduleCycles: 9732, TotalPairs: 679, PeakLiveEPR: 1358, AvgLiveEPR: 570.6220715166461, LatencyOverhead: 0.002162496138399753},
		},
	}
	c := apps.GSE(apps.GSEConfig{M: 10, Steps: 2})
	d := NewDistributor()
	for _, regions := range []int{1, 2, 8, 32, 64} {
		sched, err := simd.RunContext(context.Background(), c, simd.Config{Regions: regions, Seed: 1})
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
			if want := golden[regions][i]; got != want {
				t.Errorf("%d regions window %d drifted:\n got %+v\nwant %+v", regions, win, got, want)
			}
		}
	}
}
