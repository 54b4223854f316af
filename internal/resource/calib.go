package resource

import (
	"surfcomm/internal/device"
	"surfcomm/internal/surface"
)

// Per-tile logical error rates from local calibration. The uniform
// model applies one physical error rate p_P to every tile; a calibrated
// topology carries a measured effective rate per cell, so the logical
// error rate of the code patch on each tile follows the threshold
// formula with the *local* physical rate. The spread between the best
// and worst tile is what the calibration sweep study quantifies: on a
// real chip the worst tile, not the average, bounds the computation.

// ScheduleLogicalRate estimates a schedule's logical failure
// probability: tiles × cycles × the per-tile, per-cycle logical error
// rate, saturated at 1 because a rate is a probability.
func ScheduleLogicalRate(tiles int, cycles int64, perTileCycle float64) float64 {
	if lr := float64(tiles) * float64(cycles) * perTileCycle; lr < 1 {
		return lr
	}
	return 1
}

// TileLogicalRates returns the per-tile logical error rate per syndrome
// cycle at distance d, row-major over the topology grid. Tiles without
// a calibration entry (rate 0) and all tiles of an uncalibrated or nil
// topology fall back to the technology's uniform rate; dead tiles
// report 0 (no patch lives there).
func TileLogicalRates(t *device.Topology, tech surface.Technology, d int) []float64 {
	if t == nil {
		return nil
	}
	uniform := tech.LogicalErrorPerCycle(d)
	out := make([]float64, t.Rows()*t.Cols())
	for r := 0; r < t.Rows(); r++ {
		for c := 0; c < t.Cols(); c++ {
			i := r*t.Cols() + c
			cell := device.Coord{Row: r, Col: c}
			if t.TileDead(cell) {
				continue
			}
			if p := t.TileErrorRate(cell); p > 0 {
				local := tech
				local.PhysicalErrorRate = p
				// Above-threshold tiles blow the power law past 1; a rate
				// is a probability, so saturate at certain failure.
				if lr := local.LogicalErrorPerCycle(d); lr < 1 {
					out[i] = lr
				} else {
					out[i] = 1
				}
			} else {
				out[i] = uniform
			}
		}
	}
	return out
}

// RateSpread summarizes a per-tile rate slice: the minimum and maximum
// over live tiles (rate > 0) and the mean across them. All zeros (or an
// empty slice) report 0s.
func RateSpread(rates []float64) (min, max, mean float64) {
	n := 0
	for _, p := range rates {
		if p <= 0 {
			continue
		}
		if n == 0 || p < min {
			min = p
		}
		if p > max {
			max = p
		}
		mean += p
		n++
	}
	if n > 0 {
		mean /= float64(n)
	}
	return min, max, mean
}
