package teleport

import (
	"context"
	"errors"
	"testing"

	"surfcomm/internal/apps"
	"surfcomm/internal/device"
	"surfcomm/internal/layout"
	"surfcomm/internal/scerr"
	"surfcomm/internal/simd"
)

// fixedSchedule builds a synthetic Multi-SIMD schedule with the given
// moves, bypassing the scheduler.
func fixedSchedule(regions, timesteps int, moves []simd.Move) *simd.Schedule {
	return &simd.Schedule{
		Config:    simd.Config{Regions: regions, Width: 8},
		Timesteps: timesteps,
		Moves:     moves,
	}
}

func distribute(t *testing.T, s *simd.Schedule, w int64, cfg Config) Result {
	t.Helper()
	r, err := DistributeContext(context.Background(), s, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNoMovesNoStalls(t *testing.T) {
	s := fixedSchedule(4, 10, nil)
	r := distribute(t, s, 100, Config{Distance: 9})
	if r.StallCycles != 0 || r.ScheduleCycles != 90 {
		t.Errorf("empty move list: %+v", r)
	}
	if r.PeakLiveEPR != 0 {
		t.Errorf("peak live = %d, want 0", r.PeakLiveEPR)
	}
}

func TestGenerousWindowNoStall(t *testing.T) {
	s := fixedSchedule(4, 20, []simd.Move{{Timestep: 10, Qubit: 0, From: 0, To: 3}})
	r := distribute(t, s, PrefetchAll, Config{Distance: 8})
	if r.StallCycles != 0 {
		t.Errorf("prefetch-all should never stall, got %d", r.StallCycles)
	}
	if r.TotalPairs != 1 {
		t.Errorf("pairs = %d, want 1", r.TotalPairs)
	}
}

func TestTightWindowStalls(t *testing.T) {
	// Use at timestep 0 (cycle 0) with window 0: halves need travel
	// time, so the first timestep must stall.
	s := fixedSchedule(4, 5, []simd.Move{{Timestep: 0, Qubit: 0, From: 0, To: 3}})
	r := distribute(t, s, 0, Config{Distance: 8})
	if r.StallCycles <= 0 {
		t.Error("zero window with immediate use must stall")
	}
}

func TestStallMonotoneInWindow(t *testing.T) {
	var moves []simd.Move
	for ts := 0; ts < 30; ts++ {
		for k := 0; k < 4; k++ {
			moves = append(moves, simd.Move{Timestep: ts, Qubit: k, From: k % 4, To: (k + 1) % 4})
		}
	}
	s := fixedSchedule(4, 30, moves)
	cfg := Config{Distance: 8}
	prevStall := int64(1 << 60)
	prevPeak := 0
	for _, w := range []int64{0, 4, 8, 16, 32, 64, 256, PrefetchAll} {
		r := distribute(t, s, w, cfg)
		if r.StallCycles > prevStall {
			t.Errorf("stall increased with window %d: %d > %d", w, r.StallCycles, prevStall)
		}
		if r.PeakLiveEPR < prevPeak {
			t.Errorf("peak live decreased with window %d: %d < %d", w, r.PeakLiveEPR, prevPeak)
		}
		prevStall, prevPeak = r.StallCycles, r.PeakLiveEPR
	}
}

func TestPrefetchAllFloodsLivePairs(t *testing.T) {
	// A long schedule with steady traffic: prefetch-all keeps nearly
	// every half alive at once; JIT keeps a small working set. This is
	// the §8.1 qubit-saving effect.
	var moves []simd.Move
	for ts := 0; ts < 200; ts++ {
		moves = append(moves, simd.Move{Timestep: ts, Qubit: 0, From: 0, To: 3})
	}
	s := fixedSchedule(4, 200, moves)
	cfg := Config{Distance: 8}
	flood := distribute(t, s, PrefetchAll, cfg)
	jit := distribute(t, s, JITWindow(s, cfg), cfg)
	if flood.PeakLiveEPR <= 4*jit.PeakLiveEPR {
		t.Errorf("prefetch-all peak %d should dwarf JIT peak %d",
			flood.PeakLiveEPR, jit.PeakLiveEPR)
	}
	if jit.LatencyOverhead > 0.10 {
		t.Errorf("JIT latency overhead %.1f%% too high", 100*jit.LatencyOverhead)
	}
}

func TestLinkCongestionSpreadsArrivals(t *testing.T) {
	// Many pairs to the same destination in the same timestep: limited
	// bandwidth must stall a zero-slack launch plan more than a
	// high-bandwidth network.
	var moves []simd.Move
	for k := 0; k < 32; k++ {
		moves = append(moves, simd.Move{Timestep: 1, Qubit: k, From: 0, To: 3})
	}
	s := fixedSchedule(4, 3, moves)
	narrow := distribute(t, s, 16, Config{Distance: 8, LinkBandwidth: 1})
	wide := distribute(t, s, 16, Config{Distance: 8, LinkBandwidth: 16})
	if narrow.StallCycles <= wide.StallCycles {
		t.Errorf("bandwidth 1 stall %d should exceed bandwidth 16 stall %d",
			narrow.StallCycles, wide.StallCycles)
	}
}

// TestTooEarlyDistributionCausesTraffic pins the paper's §4.2 warning:
// "do not distribute EPRs too early since they may cause traffic".
// Two bursts of teleports, far apart in time: prefetch-all launches
// both at cycle 0, so the late burst's halves congest the factory
// outlinks and delay the early burst; a just-in-time window keeps the
// bursts separated and stalls less.
func TestTooEarlyDistributionCausesTraffic(t *testing.T) {
	// The late burst sits first in the move list, so under prefetch-all
	// its halves grab the cycle-0 link slots ahead of the urgent wave —
	// launch order, not need order, decides who moves first.
	var moves []simd.Move
	for k := 0; k < 24; k++ {
		moves = append(moves, simd.Move{Timestep: 30, Qubit: 100 + k, From: 0, To: 3})
	}
	for k := 0; k < 24; k++ {
		moves = append(moves, simd.Move{Timestep: 1, Qubit: k, From: 0, To: 3})
	}
	s := fixedSchedule(4, 32, moves)
	cfg := Config{Distance: 8, LinkBandwidth: 1}
	flood := distribute(t, s, PrefetchAll, cfg)
	jit := distribute(t, s, 64, cfg)
	if flood.StallCycles <= jit.StallCycles {
		t.Errorf("flooding should self-congest: flood stall %d vs JIT stall %d",
			flood.StallCycles, jit.StallCycles)
	}
	if flood.PeakLiveEPR <= jit.PeakLiveEPR {
		t.Errorf("flooding should also cost more live pairs: %d vs %d",
			flood.PeakLiveEPR, jit.PeakLiveEPR)
	}
}

func TestMagicSourceMovesWork(t *testing.T) {
	s := fixedSchedule(4, 4, []simd.Move{
		{Timestep: 1, Qubit: -1, From: simd.MagicSource, To: 2},
	})
	r := distribute(t, s, PrefetchAll, Config{Distance: 8})
	if r.TotalPairs != 1 || r.StallCycles != 0 {
		t.Errorf("magic move: %+v", r)
	}
}

func TestDeterminism(t *testing.T) {
	c := apps.SQ(apps.SQConfig{N: 6, Iters: 1})
	sched, err := simd.RunContext(context.Background(), c, simd.Config{Regions: 4, Width: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Distance: 9}
	a := distribute(t, sched, 64, cfg)
	b := distribute(t, sched, 64, cfg)
	if a != b {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestRejectsNegativeWindow(t *testing.T) {
	s := fixedSchedule(4, 1, nil)
	if _, err := DistributeContext(context.Background(), s, -1, Config{}); err == nil {
		t.Error("negative window should fail")
	}
}

func TestEndToEndAppDistribution(t *testing.T) {
	c := apps.Ising(apps.IsingConfig{N: 16, Steps: 1}, true)
	sched, err := simd.RunContext(context.Background(), c, simd.Config{Regions: 4, Width: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Distance: 9}
	r := distribute(t, sched, JITWindow(sched, cfg), cfg)
	if r.TotalPairs != len(sched.Moves) {
		t.Errorf("pairs %d != moves %d", r.TotalPairs, len(sched.Moves))
	}
	if r.ScheduleCycles < r.BaseCycles {
		t.Error("schedule below base")
	}
	if r.AvgLiveEPR < 0 || float64(r.PeakLiveEPR) < r.AvgLiveEPR {
		t.Errorf("live accounting inconsistent: peak %d avg %.1f", r.PeakLiveEPR, r.AvgLiveEPR)
	}
}

func TestSweepWindows(t *testing.T) {
	s := fixedSchedule(4, 10, []simd.Move{{Timestep: 5, Qubit: 0, From: 0, To: 1}})
	rs, err := SweepWindowsContext(context.Background(), s, []int64{0, 10, 100}, Config{Distance: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("results = %d, want 3", len(rs))
	}
	for i, r := range rs {
		if r.WindowCycles != []int64{0, 10, 100}[i] {
			t.Errorf("window %d = %d", i, r.WindowCycles)
		}
	}
}

// staircase is the columns-first XY route of the ideal grid, kept as
// the reference the all-alive next-hop tables must reproduce: the
// directed-link slot (dirDelta's convention) of the hop from pos toward
// dest.
func staircase(pos, dest layout.Coord) int8 {
	switch {
	case pos.Col < dest.Col:
		return 0
	case pos.Col > dest.Col:
		return 1
	case pos.Row < dest.Row:
		return 2
	default:
		return 3
	}
}

// TestPerfectTablesAreStaircase checks the perfect device's routing
// tables at every power-of-two region count the Distributor accepts:
// each node's next hop toward each destination is the staircase's
// direction, and every in-bounds hop costs the base hop time.
func TestPerfectTablesAreStaircase(t *testing.T) {
	cfg := Config{Device: device.Perfect()}.withDefaults()
	hop := cfg.HopCycles()
	d := NewDistributor()
	for regions := 1; regions <= maxRegions; regions *= 2 {
		geo := d.geometryFor(regions)
		d.ensureDevice(geo, cfg)
		nodes := geo.rows * geo.cols
		coord := func(n int) layout.Coord { return layout.Coord{Row: n / geo.cols, Col: n % geo.cols} }
		for dst := 0; dst < nodes; dst++ {
			for n := 0; n < nodes; n++ {
				want := int8(-1)
				if n != dst {
					want = staircase(coord(n), coord(dst))
				}
				if got := d.nextHop[dst*nodes+n]; got != want {
					t.Fatalf("%d regions: next hop %v -> %v = %d, want %d", regions, coord(n), coord(dst), got, want)
				}
			}
		}
		for n := 0; n < nodes; n++ {
			for dir := int8(0); dir < 4; dir++ {
				nb := dirDelta(coord(n), dir)
				inBounds := nb.Row >= 0 && nb.Row < geo.rows && nb.Col >= 0 && nb.Col < geo.cols
				if got := d.hopW[n*4+int(dir)]; inBounds && got != hop {
					t.Fatalf("%d regions: hop %v -> %v costs %d cycles, want %d", regions, coord(n), nb, got, hop)
				}
			}
		}
	}
}

// TestRegionBoundRejectsBeforeTables hands a Distributor a schedule over
// 2,048 regions: it must fail with ErrBadConfig before building a
// next-hop table (4.5 MB at that size).
func TestRegionBoundRejectsBeforeTables(t *testing.T) {
	s := fixedSchedule(2*maxRegions, 2, []simd.Move{{Timestep: 1, Qubit: 0, From: 0, To: 2*maxRegions - 1}})
	d := NewDistributor()
	if _, err := d.DistributeContext(context.Background(), s, 0, Config{}); !errors.Is(err, scerr.ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
	if d.nextHop != nil || d.hopW != nil {
		t.Fatalf("rejected schedule built routing tables (%d next-hop entries)", len(d.nextHop))
	}
}
