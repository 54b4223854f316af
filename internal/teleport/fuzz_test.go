package teleport

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"surfcomm/internal/device"
	"surfcomm/internal/scerr"
	"surfcomm/internal/simd"
)

// FuzzDistributeSchedule hands DistributeContext hand-built schedules.
// The input picks a nil schedule or one of the given regions and
// timesteps, a window, the perfect grid or a device whose region 0 is
// dead, and moves read three bytes at a time (timestep, From, To as
// int8s). In-bound region and timestep counts fold to at most 16 and
// 63, so runs stay fast; out-of-bound counts are kept. Nothing may
// panic. A negative window, a nil schedule, counts out of bounds, or a
// move out of the schedule's regions or timesteps must fail with
// ErrBadConfig. Any other schedule must distribute every move, except
// that a move touching the dead region fails with ErrUnroutable. The
// seed corpus replays six malformed schedules that once panicked or
// were accepted.
func FuzzDistributeSchedule(f *testing.F) {
	// one encodes a single move at timestep 0.
	one := func(from, to int) []byte { return []byte{0, byte(int8(from)), byte(int8(to))} }

	f.Add(false, 4, 2, int64(0), uint8(0), one(0, 9))                // move to a region past the schedule
	f.Add(false, 4, 2, int64(0), uint8(0), one(-7, 1))               // move from a negative region
	f.Add(false, 4, 2, int64(0), uint8(0), one(4, 1))                // move from region Regions
	f.Add(true, 0, 0, int64(0), uint8(0), []byte(nil))               // nil schedule
	f.Add(false, 4, 2, int64(0), uint8(0), one(0, simd.MagicSource)) // move into the magic-state factory
	f.Add(false, 4, 1<<50, int64(0), uint8(0), one(0, 1))            // timesteps past the bound
	f.Add(false, 4, 3, int64(9), uint8(0), one(simd.MagicSource, 3)) // routable
	f.Add(false, 4, 3, PrefetchAll, uint8(1), one(2, 0))             // unroutable: region 0 is dead
	deadRegion := device.Custom("dead-region-0", 0, func(topo *device.Topology, _ *rand.Rand) {
		topo.DisableTile(device.Coord{Row: 0, Col: 0})
	})
	f.Fuzz(func(t *testing.T, nilSchedule bool, regions, timesteps int, window int64, devSel uint8, raw []byte) {
		if regions >= 1 && regions <= maxRegions {
			regions = 1 + (regions-1)%16
		}
		if timesteps >= 0 && timesteps <= maxTimesteps {
			timesteps %= 64
		}
		var s *simd.Schedule
		malformed := window < 0
		touchesDead := false
		if nilSchedule {
			malformed = true
		} else {
			s = fixedSchedule(regions, timesteps, nil)
			malformed = malformed || regions < 1 || regions > maxRegions || timesteps < 0 || timesteps > maxTimesteps
			inRegions := func(r int) bool { return r >= 0 && r < regions }
			for i := 0; i+3 <= len(raw); i += 3 {
				mv := simd.Move{Timestep: int(int8(raw[i])), Qubit: i / 3, From: int(int8(raw[i+1])), To: int(int8(raw[i+2]))}
				s.Moves = append(s.Moves, mv)
				malformed = malformed || !inRegions(mv.To) || mv.From != simd.MagicSource && !inRegions(mv.From) ||
					mv.Timestep < 0 || mv.Timestep >= timesteps
				touchesDead = touchesDead || mv.From == 0 || mv.To == 0
			}
		}
		cfg := Config{Distance: 5}
		if devSel%2 == 1 {
			cfg.Device = deadRegion
		}
		r, err := DistributeContext(context.Background(), s, window, cfg)
		switch {
		case malformed:
			if !errors.Is(err, scerr.ErrBadConfig) {
				t.Fatalf("malformed schedule (nil %v, %d regions, %d timesteps, window %d): got %v, want ErrBadConfig",
					nilSchedule, regions, timesteps, window, err)
			}
		case cfg.Device != nil && touchesDead:
			if !errors.Is(err, scerr.ErrUnroutable) {
				t.Fatalf("schedule touching dead region 0: got %v, want ErrUnroutable", err)
			}
		case err != nil:
			t.Fatalf("well-formed schedule (%d regions, %d timesteps, %d moves, window %d): %v",
				regions, timesteps, len(s.Moves), window, err)
		case r.TotalPairs != len(s.Moves) || r.BaseCycles != int64(timesteps)*cfg.StepCycles() || r.ScheduleCycles < r.BaseCycles:
			t.Fatalf("inconsistent result for %d moves over %d timesteps: %+v", len(s.Moves), timesteps, r)
		}
	})
}
