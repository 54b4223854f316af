package surfcomm

import (
	"context"
	"fmt"
	"io"

	"surfcomm/internal/braid"
	"surfcomm/internal/scerr"
	"surfcomm/internal/simd"
	"surfcomm/internal/surface"
	"surfcomm/internal/teleport"
)

// JITWindowAuto selects the just-in-time look-ahead heuristic for the
// planar backend's EPR distribution (see JITWindow).
const JITWindowAuto = int64(-1)

// Target is the compilation target a Backend lowers a circuit onto:
// the code distance, device technology, and the per-backend knobs of
// the paper's toolflow. A Toolchain derives one from its options; zero
// fields select the paper's defaults.
type Target struct {
	// Distance is the surface code distance d, at most 999; zero
	// selects 9.
	Distance int
	// Technology captures the physical device; a zero value selects
	// the baseline superconducting technology at p_P = 1e-8.
	Technology Technology
	// Policy is the braid prioritization heuristic (braid and surgery
	// backends).
	Policy BraidPolicy
	// Seed drives layout and partition optimizers.
	Seed int64
	// Window is the EPR look-ahead in EC cycles (planar backend);
	// zero or JITWindowAuto selects the just-in-time heuristic.
	// (Explicit zero-window studies go through the EPR window sweep.)
	Window int64
	// SIMD overrides the Multi-SIMD machine shape; the zero value
	// sizes the machine from the circuit (the Fig. 3a rule).
	SIMD SIMDConfig
	// RecordSchedule captures the static schedule in the Plan's braid
	// result so it can be replay-validated.
	RecordSchedule bool
	// Placement overrides the policy-selected qubit arrangement
	// (braid and surgery backends).
	Placement *Placement
	// Device is the physical topology the machine is realized on (dead
	// tiles, disabled links, per-link latency multipliers). Nil selects
	// the perfect uniform grid; every backend on a perfect device is
	// bit-identical to the pre-device pipeline. Routes impossible on a
	// defective device fail with an error matching ErrUnroutable.
	Device *Device
	// Defects is an optional live-defect schedule: couplers that die
	// mid-execution (braid and surgery backends). In-flight braids are
	// torn down and re-routed around each death; ErrUnroutable only
	// when the surviving fabric disconnects.
	Defects *DefectSchedule
}

// withDefaults fills the paper's default target parameters.
func (t Target) withDefaults() Target {
	if t.Distance == 0 {
		t.Distance = 9
	}
	if t.Technology == (Technology{}) {
		t.Technology = Superconducting(1e-8)
	}
	if t.Window == 0 {
		t.Window = JITWindowAuto
	}
	return t
}

// WriteFingerprint writes the compiling backend's name and every
// plan-affecting field of the target to w. The serving layer's compile
// digest and the module digests both hash these bytes, and disk stores
// name entries by those digests, so the output must stay stable.
func (t Target) WriteFingerprint(w io.Writer, backend string) {
	fmt.Fprintf(w, "backend=%s\n", backend)
	// "bw=0 local=false" names two retired fields at their only values,
	// so digests and store entry names stay byte-identical.
	fmt.Fprintf(w, "d=%d policy=%d seed=%d window=%d bw=0 local=false record=%t\n",
		t.Distance, int(t.Policy), t.Seed, t.Window, t.RecordSchedule)
	fmt.Fprintf(w, "tech=%g/%g/%g/%g/%g/%g\n",
		t.Technology.PhysicalErrorRate, t.Technology.Threshold, t.Technology.Prefactor,
		t.Technology.Gate1Q, t.Technology.Gate2Q, t.Technology.Meas)
	fmt.Fprintf(w, "simd=%d/%d/%d/%t\n", t.SIMD.Regions, t.SIMD.Width, t.SIMD.Seed, t.SIMD.NaiveBanks)
	fmt.Fprintf(w, "device=%s\n", t.Device.String())
}

// validate checks the target after defaulting. Every dimension an
// internal constructor derives from the target (mesh junction grids,
// device topologies, SIMD region grids) is bounded here, so the
// constructors' invariant panics are unreachable from the public API:
// a bad target fails with an error matching ErrBadConfig instead.
func (t Target) validate() error {
	if t.Distance < 1 || t.Distance > surface.MaxDistance {
		return scerr.BadConfig("target: distance %d outside [1, %d]", t.Distance, surface.MaxDistance)
	}
	if t.Policy < Policy0 || t.Policy > Policy6 {
		return scerr.BadConfig("target: unknown policy %d", int(t.Policy))
	}
	if t.Window < 0 && t.Window != JITWindowAuto {
		return scerr.BadConfig("target: negative window %d", t.Window)
	}
	if t.SIMD != (SIMDConfig{}) {
		if err := t.SIMD.Validate(); err != nil {
			return err
		}
	}
	if err := t.Technology.Validate(); err != nil {
		return scerr.BadConfig("target: %v", err)
	}
	return nil
}

// Plan is the unified result of compiling one circuit onto one
// communication backend: the schedule length, the physical footprint,
// and the backend-specific artifacts.
type Plan struct {
	Backend  string // compiling backend's Name
	Circuit  string // circuit name
	Distance int
	Seed     int64
	// Device names the topology the plan was compiled on ("perfect",
	// or preset(p=…,seed=…) for defective devices).
	Device string

	// Cycles is the end-to-end schedule length in EC cycles; Seconds
	// converts it at the target technology's syndrome cycle time.
	Cycles  int64
	Seconds float64
	// PhysicalQubits is the machine footprint under the backend's
	// encoding (double-defect tiles + channels, planar tiles + live
	// EPR qubits, or planar tiles + merge corridors).
	PhysicalQubits float64
	// CommOps counts the backend's communication events: braids
	// placed, EPR pairs distributed, or merge chains executed.
	CommOps int64

	// Modular records hierarchical-compile provenance (per-module cache
	// hits, recompiled modules, stitch costs) when the plan came from
	// CompileIncremental's modular path; nil for flat compiles and for
	// single-module fast-path programs.
	Modular *ModularResult `json:",omitempty"`

	// Braid is the double-defect / surgery simulation result (nil for
	// the planar backend).
	Braid *BraidResult
	// SIMD and EPR are the planar backend's schedule and distribution
	// results (nil for the other backends).
	SIMD *SIMDSchedule
	EPR  *TeleportResult
}

// Backend is one of the paper's communication schemes, compiled behind
// a common interface: it lowers a logical circuit onto a Target and
// returns the unified Plan. Compiles are cancelable through ctx; an
// aborted compile returns an error matching ErrCanceled.
type Backend interface {
	Name() string
	Compile(ctx context.Context, c *Circuit, t *Target) (Plan, error)
}

// Backends returns the three first-class backends in paper order:
// double-defect braiding, planar Multi-SIMD + EPR teleportation, and
// lattice surgery.
func Backends() []Backend {
	return []Backend{BraidBackend{}, PlanarBackend{}, SurgeryBackend{}}
}

// BackendByName resolves a backend by its Name; the error matches
// ErrBadConfig for unknown names.
func BackendByName(name string) (Backend, error) {
	for _, b := range Backends() {
		if b.Name() == name {
			return b, nil
		}
	}
	return nil, scerr.BadConfig("no backend named %q", name)
}

func prepTarget(c *Circuit, t *Target) (Target, error) {
	if c == nil {
		return Target{}, scerr.BadConfig("compile: nil circuit")
	}
	if t == nil {
		return Target{}, scerr.BadConfig("compile: nil target")
	}
	if c.NumQubits < 1 {
		return Target{}, scerr.BadConfig("compile: circuit %q has no qubits", c.Name)
	}
	if err := c.Validate(); err != nil {
		return Target{}, scerr.BadConfig("compile: %v", err)
	}
	tt := t.withDefaults()
	if err := tt.validate(); err != nil {
		return Target{}, err
	}
	if tt.Placement != nil {
		if err := tt.Placement.Validate(); err != nil {
			return Target{}, scerr.BadConfig("compile: %v", err)
		}
		if len(tt.Placement.Pos) < c.NumQubits {
			return Target{}, scerr.BadConfig("compile: placement covers %d qubits, circuit %q has %d",
				len(tt.Placement.Pos), c.Name, c.NumQubits)
		}
	}
	return tt, nil
}

// BraidBackend compiles onto the tiled double-defect architecture: the
// dynamic braid simulator discovers a static schedule under the
// target's priority policy (paper §6).
type BraidBackend struct{}

// Name returns "braid".
func (BraidBackend) Name() string { return "braid" }

// Compile runs the braid simulation and reports its Figure 6 metrics
// as a Plan.
func (BraidBackend) Compile(ctx context.Context, c *Circuit, t *Target) (Plan, error) {
	return braidCompile(ctx, c, t, false)
}

// SurgeryBackend compiles onto lattice surgery (paper §8.2): planar
// patches communicate by merge/split chains that claim their whole
// route — braiding's contention without its distance-independent
// speed, teleportation's planar tiles without its prefetchability.
type SurgeryBackend struct{}

// Name returns "surgery".
func (SurgeryBackend) Name() string { return "surgery" }

// Compile runs the merge-chain simulation and reports it as a Plan.
func (SurgeryBackend) Compile(ctx context.Context, c *Circuit, t *Target) (Plan, error) {
	return braidCompile(ctx, c, t, true)
}

// braidCompile is the shared route-claiming compile: the braid engine
// in braid or surgery timing mode.
func braidCompile(ctx context.Context, c *Circuit, t *Target, surgery bool) (Plan, error) {
	tt, err := prepTarget(c, t)
	if err != nil {
		return Plan{}, err
	}
	name := "braid"
	if surgery {
		name = "surgery"
	}
	res, err := braid.SimulateContext(ctx, c, tt.Policy, braid.Config{
		Distance:       tt.Distance,
		Seed:           tt.Seed,
		RecordSchedule: tt.RecordSchedule,
		Placement:      tt.Placement,
		Surgery:        surgery,
		Device:         tt.Device,
		Defects:        tt.Defects,
	})
	if err != nil {
		return Plan{}, err
	}
	return Plan{
		Backend:        name,
		Circuit:        c.Name,
		Distance:       tt.Distance,
		Seed:           tt.Seed,
		Device:         tt.Device.String(),
		Cycles:         res.ScheduleCycles,
		Seconds:        float64(res.ScheduleCycles) * tt.Technology.SyndromeCycleTime(),
		PhysicalQubits: float64(res.PhysicalQubits),
		CommOps:        res.BraidsPlaced,
		Braid:          &res,
	}, nil
}

// PlanarBackend compiles onto the planar Multi-SIMD architecture: the
// region scheduler packs operations into SIMD broadcasts, and the EPR
// distribution simulator replays the resulting move list at the
// target's look-ahead window (paper §4.4, §8.1) — scheduling and
// teleportation fused into one stage.
type PlanarBackend struct{}

// Name returns "planar".
func (PlanarBackend) Name() string { return "planar" }

// Compile schedules the circuit and distributes its EPR pairs,
// reporting the fused result as a Plan.
func (PlanarBackend) Compile(ctx context.Context, c *Circuit, t *Target) (Plan, error) {
	tt, err := prepTarget(c, t)
	if err != nil {
		return Plan{}, err
	}
	scfg := tt.SIMD
	if scfg == (SIMDConfig{}) {
		scfg = simd.ConfigFor(c.NumQubits, tt.Seed)
	}
	sched, err := simd.RunContext(ctx, c, scfg)
	if err != nil {
		return Plan{}, err
	}
	tcfg := teleport.Config{Distance: tt.Distance, Device: tt.Device}
	window := tt.Window
	if window == JITWindowAuto {
		window = teleport.JITWindow(sched, tcfg)
	}
	epr, err := teleport.DistributeContext(ctx, sched, window, tcfg)
	if err != nil {
		return Plan{}, err
	}
	// Footprint: data tiles plus the paper's 1:4 ancilla-factory
	// provisioning, in planar tiles, plus one physical qubit per live
	// EPR half in flight at the peak (EPR halves travel unencoded).
	q := float64(c.NumQubits)
	factory := q / surface.AncillaDataRatio
	if factory < surface.MagicFactoryLogicalQubits {
		factory = surface.MagicFactoryLogicalQubits
	}
	tiles := q + factory
	return Plan{
		Backend:        "planar",
		Circuit:        c.Name,
		Distance:       tt.Distance,
		Seed:           tt.Seed,
		Device:         tt.Device.String(),
		Cycles:         epr.ScheduleCycles,
		Seconds:        float64(epr.ScheduleCycles) * tt.Technology.SyndromeCycleTime(),
		PhysicalQubits: tiles*float64(surface.PlanarTileQubits(tt.Distance)) + float64(epr.PeakLiveEPR),
		CommOps:        int64(epr.TotalPairs),
		SIMD:           sched,
		EPR:            &epr,
	}, nil
}
