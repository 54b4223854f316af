package simd

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"surfcomm/internal/apps"
	"surfcomm/internal/circuit"
)

func run(t *testing.T, c *circuit.Circuit, cfg Config) *Schedule {
	t.Helper()
	s, err := RunContext(context.Background(), c, cfg)
	if err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	return s
}

func TestSerialChainOneOpPerTimestep(t *testing.T) {
	c := circuit.New("chain", 1)
	for i := 0; i < 8; i++ {
		c.Append(circuit.H, 0)
	}
	s := run(t, c, Config{Regions: 4, Width: 8})
	if s.Timesteps != 8 {
		t.Errorf("timesteps = %d, want 8", s.Timesteps)
	}
	if s.Teleports != 0 {
		t.Errorf("teleports = %d, want 0 (single qubit stays home)", s.Teleports)
	}
	if s.CriticalTimesteps != 8 {
		t.Errorf("critical = %d, want 8", s.CriticalTimesteps)
	}
}

func TestParallelSameTypePacksOneTimestep(t *testing.T) {
	c := circuit.New("wide", 8)
	for q := 0; q < 8; q++ {
		c.Append(circuit.H, q)
	}
	s := run(t, c, Config{Regions: 4, Width: 8})
	// All H ops are one type; one region runs up to 8 of them at once,
	// but operands live in 4 different banks: expect few timesteps and
	// some teleports, or one step per bank if region reuse is blocked.
	if s.Timesteps > 4 {
		t.Errorf("timesteps = %d, want <= 4", s.Timesteps)
	}
	if s.Ops != 8 {
		t.Errorf("ops = %d, want 8", s.Ops)
	}
}

func TestWidthLimitForcesExtraTimesteps(t *testing.T) {
	c := circuit.New("wide", 8)
	for q := 0; q < 8; q++ {
		c.Append(circuit.X, q)
	}
	narrow := run(t, c, Config{Regions: 1, Width: 2})
	if narrow.Timesteps < 4 {
		t.Errorf("width 2, 8 ops, 1 region: timesteps = %d, want >= 4", narrow.Timesteps)
	}
	wide := run(t, c, Config{Regions: 1, Width: 8})
	if wide.Timesteps != 1 {
		t.Errorf("width 8: timesteps = %d, want 1", wide.Timesteps)
	}
}

func TestRegionLimitSerializesTypes(t *testing.T) {
	// 4 distinct op types, 2 regions: at most 2 types per timestep.
	c := circuit.New("types", 4)
	c.Append(circuit.H, 0)
	c.Append(circuit.X, 1)
	c.Append(circuit.S, 2)
	c.Append(circuit.T, 3)
	s := run(t, c, Config{Regions: 2, Width: 8})
	if s.Timesteps != 2 {
		t.Errorf("timesteps = %d, want 2", s.Timesteps)
	}
}

func TestDependenciesRespected(t *testing.T) {
	c := circuit.New("dep", 2)
	c.Append(circuit.H, 0)
	c.Append(circuit.CNOT, 0, 1)
	c.Append(circuit.MeasZ, 1)
	s := run(t, c, Config{Regions: 4, Width: 4})
	if s.Timesteps != 3 {
		t.Errorf("timesteps = %d, want 3 (pure chain)", s.Timesteps)
	}
}

func TestTwoQubitOpColocatesOperands(t *testing.T) {
	// Qubits 0 and 1 in different home banks must generate exactly one
	// teleport for their CNOT.
	c := circuit.New("cnot", 2)
	c.Append(circuit.CNOT, 0, 1)
	s := run(t, c, Config{Regions: 2, Width: 4, NaiveBanks: true})
	if s.HomeRegion[0] == s.HomeRegion[1] {
		t.Fatal("naive banks should split consecutive qubits across regions")
	}
	if s.Teleports != 1 {
		t.Errorf("teleports = %d, want 1", s.Teleports)
	}
}

func TestMagicMovesPerTGate(t *testing.T) {
	c := circuit.New("t", 2)
	c.Append(circuit.T, 0)
	c.Append(circuit.Tdg, 1)
	c.Append(circuit.H, 0)
	s := run(t, c, Config{Regions: 4, Width: 4})
	if s.MagicMoves != 2 {
		t.Errorf("magic moves = %d, want 2", s.MagicMoves)
	}
	for _, m := range s.Moves {
		if m.From == MagicSource && m.Qubit != -1 {
			t.Error("magic moves should not name a data qubit")
		}
	}
}

func TestBarriersCostNothing(t *testing.T) {
	c := circuit.New("fence", 2)
	c.Append(circuit.H, 0)
	c.Append(circuit.Barrier, 0, 1)
	c.Append(circuit.H, 1)
	s := run(t, c, Config{Regions: 2, Width: 2})
	if s.Timesteps != 2 {
		t.Errorf("timesteps = %d, want 2 (barrier serializes but is free)", s.Timesteps)
	}
}

func TestLocalityPartitionReducesTeleports(t *testing.T) {
	// Two independent clusters interacting internally: locality banks
	// should produce far fewer teleports than naive round-robin.
	c := circuit.New("clusters", 8)
	for rep := 0; rep < 10; rep++ {
		for i := 0; i < 4; i += 2 {
			c.Append(circuit.CNOT, i, i+1)
			c.Append(circuit.CNOT, 4+i, 5+i)
		}
		c.Append(circuit.CNOT, 0, 2)
		c.Append(circuit.CNOT, 4, 6)
	}
	local := run(t, c, Config{Regions: 2, Width: 8, Seed: 1})
	naive := run(t, c, Config{Regions: 2, Width: 8, NaiveBanks: true})
	if local.Teleports >= naive.Teleports {
		t.Errorf("locality banks %d teleports should beat naive %d",
			local.Teleports, naive.Teleports)
	}
}

func TestConfigValidation(t *testing.T) {
	c := circuit.New("x", 1)
	c.Append(circuit.X, 0)
	if _, err := RunContext(context.Background(), c, Config{Regions: 3}); err == nil {
		t.Error("non-power-of-two regions should fail")
	}
	if _, err := RunContext(context.Background(), c, Config{Regions: 4, Width: -1}); err == nil {
		t.Error("negative width should fail")
	}
}

func TestAppSchedules(t *testing.T) {
	for _, w := range []apps.Workload{
		{Name: "GSE", Circuit: apps.GSE(apps.GSEConfig{M: 6, Steps: 1})},
		{Name: "IM", Circuit: apps.Ising(apps.IsingConfig{N: 16, Steps: 1}, true)},
	} {
		s := run(t, w.Circuit, Config{Regions: 4, Width: 16, Seed: 2})
		if s.Timesteps < s.CriticalTimesteps {
			t.Errorf("%s: timesteps %d below critical %d", w.Name, s.Timesteps, s.CriticalTimesteps)
		}
		if s.Ops != w.Circuit.Ops() {
			t.Errorf("%s: ops %d != circuit ops %d", w.Name, s.Ops, w.Circuit.Ops())
		}
	}
}

func TestMoveAccounting(t *testing.T) {
	c := apps.SQ(apps.SQConfig{N: 4, Iters: 1})
	s := run(t, c, Config{Regions: 4, Width: 8, Seed: 3})
	teleports, magic := 0, 0
	for _, m := range s.Moves {
		if m.From == MagicSource {
			magic++
			continue
		}
		teleports++
		if m.From == m.To {
			t.Error("teleport with identical endpoints")
		}
		if m.Timestep < 0 || m.Timestep >= s.Timesteps {
			t.Errorf("move timestep %d out of range", m.Timestep)
		}
	}
	if teleports != s.Teleports || magic != s.MagicMoves {
		t.Errorf("move list (%d,%d) disagrees with counters (%d,%d)",
			teleports, magic, s.Teleports, s.MagicMoves)
	}
	if magic != c.TCount() {
		t.Errorf("magic moves %d != T count %d", magic, c.TCount())
	}
}

// Property: every schedule retires all ops, meets the critical-path
// lower bound, and never exceeds resource limits per timestep.
func TestScheduleQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		c := circuit.New("rand", n)
		for i := 0; i < 30; i++ {
			switch rng.Intn(3) {
			case 0:
				c.Append(circuit.H, rng.Intn(n))
			case 1:
				c.Append(circuit.T, rng.Intn(n))
			case 2:
				a := rng.Intn(n)
				b := (a + 1 + rng.Intn(n-1)) % n
				c.Append(circuit.CNOT, a, b)
			}
		}
		cfg := Config{Regions: 1 << uint(rng.Intn(3)), Width: 1 + rng.Intn(6), Seed: seed}
		s, err := RunContext(context.Background(), c, cfg)
		if err != nil {
			return false
		}
		if s.Timesteps < s.CriticalTimesteps {
			return false
		}
		// Per-timestep resource check from the move list is indirect;
		// re-run the schedule invariants: ops counted once.
		return s.Ops == c.Ops()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
