package resource

import "testing"

// TestScheduleLogicalRateClamp pins the schedule failure estimate: the
// product tiles × cycles × rate below 1, saturated at exactly 1 above.
func TestScheduleLogicalRateClamp(t *testing.T) {
	cases := []struct {
		name   string
		tiles  int
		cycles int64
		rate   float64
		want   float64
	}{
		{"zero rate", 40, 1000, 0, 0},
		{"small product", 3, 1, 0.25, 0.75},
		{"just below one", 127, 1, 1.0 / 128, 127.0 / 128},
		{"exactly one", 8, 16, 1.0 / 128, 1},
		{"above one", 100, 1000, 1e-3, 1},
		{"above-threshold tile", 1, 1, 3, 1},
	}
	for _, c := range cases {
		if got := ScheduleLogicalRate(c.tiles, c.cycles, c.rate); got != c.want {
			t.Errorf("%s: ScheduleLogicalRate(%d, %d, %g) = %g, want %g",
				c.name, c.tiles, c.cycles, c.rate, got, c.want)
		}
	}
}
