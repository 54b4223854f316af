package surfcomm_test

import (
	"context"
	"errors"
	"testing"

	"surfcomm"
	"surfcomm/internal/apps"
	"surfcomm/internal/simd"
)

// TestValidatingConstructorsRejectBadConfigs pins the panic-free
// workload surface: every New* constructor turns the generator panics
// into errors matching ErrBadConfig.
func TestValidatingConstructorsRejectBadConfigs(t *testing.T) {
	cases := map[string]func() (*surfcomm.Circuit, error){
		"GSE M<2":       func() (*surfcomm.Circuit, error) { return surfcomm.NewGSE(surfcomm.GSEConfig{M: 1, Steps: 1}) },
		"GSE steps<1":   func() (*surfcomm.Circuit, error) { return surfcomm.NewGSE(surfcomm.GSEConfig{M: 4, Steps: 0}) },
		"SQ odd":        func() (*surfcomm.Circuit, error) { return surfcomm.NewSQ(surfcomm.SQConfig{N: 7, Iters: 1}) },
		"SQ small":      func() (*surfcomm.Circuit, error) { return surfcomm.NewSQ(surfcomm.SQConfig{N: 2, Iters: 1}) },
		"SQ iters blow": func() (*surfcomm.Circuit, error) { return surfcomm.NewSQ(surfcomm.SQConfig{N: 64}) },
		"SHA1 rounds<1": func() (*surfcomm.Circuit, error) { return surfcomm.NewSHA1(surfcomm.SHA1Config{Rounds: 0}) },
		"SHA1 width<4": func() (*surfcomm.Circuit, error) {
			return surfcomm.NewSHA1(surfcomm.SHA1Config{Rounds: 1, WordWidth: 2})
		},
		"Ising N<2": func() (*surfcomm.Circuit, error) {
			return surfcomm.NewIsing(surfcomm.IsingConfig{N: 1, Steps: 1}, true)
		},
		"Ising steps<1": func() (*surfcomm.Circuit, error) {
			return surfcomm.NewIsing(surfcomm.IsingConfig{N: 4, Steps: 0}, false)
		},
		"GSE neg tdepth": func() (*surfcomm.Circuit, error) {
			return surfcomm.NewGSE(surfcomm.GSEConfig{M: 4, Steps: 1, RotationTDepth: -1})
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			c, err := build()
			if !errors.Is(err, surfcomm.ErrBadConfig) {
				t.Errorf("error = %v, want ErrBadConfig", err)
			}
			if c != nil {
				t.Error("bad config should return a nil circuit")
			}
		})
	}
}

// TestValidatingConstructorsMatchGenerators pins the wrapper property:
// a valid config builds the same circuit through both entry points.
func TestValidatingConstructorsMatchGenerators(t *testing.T) {
	got, err := surfcomm.NewSQ(surfcomm.SQConfig{N: 6, Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := apps.SQ(apps.SQConfig{N: 6, Iters: 2})
	if got.Name != want.Name || got.NumQubits != want.NumQubits || len(got.Gates) != len(want.Gates) {
		t.Errorf("NewSQ diverges from apps.SQ: %s/%d/%d vs %s/%d/%d",
			got.Name, got.NumQubits, len(got.Gates), want.Name, want.NumQubits, len(want.Gates))
	}
}

// TestCompileRejectsBadTargetsWithoutPanic sweeps the malformed
// circuit/target surface of every backend: each case must return an
// error matching ErrBadConfig, never panic (the -race suite also
// proves no internal constructor is reached).
func TestCompileRejectsBadTargetsWithoutPanic(t *testing.T) {
	ctx := context.Background()
	tc, err := surfcomm.NewToolchain(surfcomm.WithDistance(5))
	if err != nil {
		t.Fatal(err)
	}
	good := must(surfcomm.NewGSE(surfcomm.GSEConfig{M: 6, Steps: 1}))

	outOfRange := surfcomm.NewCircuit("bad-gate", 2)
	outOfRange.Gates = append(outOfRange.Gates, surfcomm.Gate{Op: surfcomm.OpCNOT, Qubits: []int{0, 5}})

	tiny := surfcomm.RowMajorPlacement(2)

	cases := map[string]struct {
		circuit  *surfcomm.Circuit
		override func(*surfcomm.Target)
		backend  string // the one backend the case runs on; "" for every backend
	}{
		"nil circuit":        {circuit: nil},
		"zero qubits":        {circuit: surfcomm.NewCircuit("empty", 0)},
		"negative qubits":    {circuit: surfcomm.NewCircuit("negative", -3)},
		"gate out of range":  {circuit: outOfRange},
		"negative distance":  {circuit: good, override: func(tg *surfcomm.Target) { tg.Distance = -1 }},
		"distance above 999": {circuit: good, override: func(tg *surfcomm.Target) { tg.Distance = 1001 }},
		"unknown policy":     {circuit: good, override: func(tg *surfcomm.Target) { tg.Policy = 42 }},
		"negative window":    {circuit: good, override: func(tg *surfcomm.Target) { tg.Window = -7 }},
		"negative bandwidth": {circuit: good, override: func(tg *surfcomm.Target) { tg.LinkBandwidth = -1 }},
		"bad simd regions":   {circuit: good, override: func(tg *surfcomm.Target) { tg.SIMD = surfcomm.SIMDConfig{Regions: 3, Width: 8} }},
		"bad simd width":     {circuit: good, override: func(tg *surfcomm.Target) { tg.SIMD = surfcomm.SIMDConfig{Regions: 4, Width: -2} }},
		"bad technology":     {circuit: good, override: func(tg *surfcomm.Target) { tg.Technology = surfcomm.Superconducting(-1) }},
		"short placement":    {circuit: good, override: func(tg *surfcomm.Target) { tg.Placement = tiny }},
		"simd regions above 1024": {circuit: good, backend: surfcomm.PlanarBackend{}.Name(),
			override: func(tg *surfcomm.Target) { tg.SIMD = surfcomm.SIMDConfig{Regions: 2048, Width: 8} }},
	}
	for name, c := range cases {
		for _, b := range surfcomm.Backends() {
			if c.backend != "" && b.Name() != c.backend {
				continue
			}
			t.Run(name+"/"+b.Name(), func(t *testing.T) {
				var overrides []func(*surfcomm.Target)
				if c.override != nil {
					overrides = append(overrides, c.override)
				}
				_, err := tc.Compile(ctx, b, c.circuit, overrides...)
				if !errors.Is(err, surfcomm.ErrBadConfig) {
					t.Errorf("error = %v, want ErrBadConfig", err)
				}
			})
		}
	}
}

// TestSweepEPRWindowsRejectsMalformedSchedules hands the facade's EPR
// sweep hand-built 4-region schedules that once panicked or were
// accepted: each must fail with ErrBadConfig.
func TestSweepEPRWindowsRejectsMalformedSchedules(t *testing.T) {
	schedule := func(timesteps, from, to int) *surfcomm.SIMDSchedule {
		return &surfcomm.SIMDSchedule{
			Config:    surfcomm.SIMDConfig{Regions: 4, Width: 8},
			Timesteps: timesteps,
			Moves:     []surfcomm.SIMDMove{{From: from, To: to}},
		}
	}
	cases := map[string]*surfcomm.SIMDSchedule{
		"move to region 9":          schedule(2, 0, 9),
		"move from region -7":       schedule(2, -7, 1),
		"move from region 4":        schedule(2, 4, 1),
		"nil schedule":              nil,
		"move to the magic factory": schedule(2, 0, simd.MagicSource),
		"timesteps past the bound":  schedule(1<<50, 0, 1),
	}
	for name, s := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := surfcomm.SweepEPRWindows(s, []int64{0, surfcomm.PrefetchAll}, surfcomm.TeleportConfig{})
			if !errors.Is(err, surfcomm.ErrBadConfig) {
				t.Errorf("error = %v, want ErrBadConfig", err)
			}
		})
	}
}
