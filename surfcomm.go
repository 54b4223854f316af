// Package surfcomm is a toolchain for optimizing and comparing surface
// code communication in superconducting quantum computers, reproducing
// Javadi-Abhari et al., "Optimized Surface Code Communication in
// Superconducting Quantum Computers" (MICRO-50, 2017).
//
// The library spans the paper's full stack:
//
//   - a logical circuit IR with hierarchical modules and an inliner
//     (circuit generation for the GSE, SQ, SHA-1, and Ising workloads);
//   - frontend analyses: dependency DAGs, critical paths, parallelism
//     estimation (Table 2);
//   - surface-code math: planar and double-defect tile geometry, code
//     distance selection, factory provisioning;
//   - a braid simulator for the tiled double-defect architecture with
//     the seven priority policies of §6.3 (Figure 6);
//   - a Multi-SIMD scheduler and EPR-distribution simulator for the
//     planar architecture with just-in-time prefetch windows (§8.1);
//   - the end-to-end design-space toolflow: planar vs. double-defect
//     space-time evaluation, favorability crossovers, and error-rate
//     boundary sweeps (Figures 7-9).
//
// This file re-exports the public API surface; implementations live in
// the internal packages.
package surfcomm

import (
	"context"
	"io"
	"math/rand"

	"surfcomm/internal/apps"
	"surfcomm/internal/braid"
	"surfcomm/internal/circuit"
	"surfcomm/internal/decoder"
	"surfcomm/internal/device"
	"surfcomm/internal/layout"
	"surfcomm/internal/resource"
	"surfcomm/internal/simd"
	"surfcomm/internal/surface"
	"surfcomm/internal/sweep"
	"surfcomm/internal/teleport"
	"surfcomm/internal/toolflow"
)

// --- Circuit IR ---

// Circuit is a flat logical program over numbered qubits.
type Circuit = circuit.Circuit

// Gate is one logical instruction.
type Gate = circuit.Gate

// Opcode identifies a logical gate type.
type Opcode = circuit.Opcode

// Builder constructs circuits with automatic Clifford+T macro expansion.
type Builder = circuit.Builder

// Program is a hierarchical circuit of callable modules.
type Program = circuit.Program

// Logical opcodes of the Clifford+T instruction set.
const (
	OpPrepZ   = circuit.PrepZ
	OpPrepX   = circuit.PrepX
	OpMeasZ   = circuit.MeasZ
	OpMeasX   = circuit.MeasX
	OpX       = circuit.X
	OpY       = circuit.Y
	OpZ       = circuit.Z
	OpH       = circuit.H
	OpS       = circuit.S
	OpSdg     = circuit.Sdg
	OpT       = circuit.T
	OpTdg     = circuit.Tdg
	OpCNOT    = circuit.CNOT
	OpCZ      = circuit.CZ
	OpSwap    = circuit.Swap
	OpBarrier = circuit.Barrier
)

// NewCircuit returns an empty circuit over n qubits.
func NewCircuit(name string, n int) *Circuit { return circuit.New(name, n) }

// NewBuilder returns a Builder over a fresh circuit.
func NewBuilder(name string, n int) *Builder { return circuit.NewBuilder(name, n) }

// InlineAll selects full inlining when flattening a Program.
const InlineAll = circuit.InlineAll

// --- Frontend analyses ---

// Estimate is the frontend's logical-level characterization (Table 2).
type Estimate = resource.Estimate

// EstimateCircuit computes op counts, critical path and parallelism.
func EstimateCircuit(c *Circuit) (Estimate, error) { return resource.EstimateCircuit(c) }

// --- Applications (paper Table 2 workloads) ---

// Workload pairs a generated application circuit with its suite name.
type Workload = apps.Workload

// GSEConfig, SQConfig, SHA1Config, IsingConfig size the generators.
type (
	GSEConfig   = apps.GSEConfig
	SQConfig    = apps.SQConfig
	SHA1Config  = apps.SHA1Config
	IsingConfig = apps.IsingConfig
)

// NewGSE generates the Ground State Estimation workload; a malformed
// config returns an error matching ErrBadConfig.
func NewGSE(cfg GSEConfig) (*Circuit, error) { return apps.NewGSE(cfg) }

// NewSQ generates the Square Root (Grover) workload; a malformed
// config returns an error matching ErrBadConfig.
func NewSQ(cfg SQConfig) (*Circuit, error) { return apps.NewSQ(cfg) }

// NewSHA1 generates the SHA-1 decryption workload; a malformed config
// returns an error matching ErrBadConfig.
func NewSHA1(cfg SHA1Config) (*Circuit, error) { return apps.NewSHA1(cfg) }

// NewIsing generates the Ising-model workload at the chosen inlining
// level; a malformed config returns an error matching ErrBadConfig.
func NewIsing(cfg IsingConfig, fullyInline bool) (*Circuit, error) {
	return apps.NewIsing(cfg, fullyInline)
}

// Table2Suite returns the four applications at characterization sizes.
func Table2Suite() []Workload { return apps.Table2Suite() }

// Fig6Suite returns the four applications at braid-simulation scale.
func Fig6Suite() []Workload { return apps.Fig6Suite() }

// IMVariants returns the semi- and fully-inlined Ising configurations.
func IMVariants(n, steps int) []Workload { return apps.IMVariants(n, steps) }

// --- Surface code model ---

// Technology captures physical device characteristics.
type Technology = surface.Technology

// Superconducting returns the paper's baseline superconducting
// technology at a physical error rate.
func Superconducting(physicalErrorRate float64) Technology {
	return surface.Superconducting(physicalErrorRate)
}

// PlanarTileQubits returns the physical qubits of a planar tile.
func PlanarTileQubits(d int) int { return surface.PlanarTileQubits(d) }

// DoubleDefectTileQubits returns the physical qubits of a double-defect
// tile.
func DoubleDefectTileQubits(d int) int { return surface.DoubleDefectTileQubits(d) }

// --- Double-defect backend (braids) ---

// BraidPolicy selects a braid prioritization heuristic (Policies 0-6).
type BraidPolicy = braid.Policy

// Braid policies in paper order.
const (
	Policy0 = braid.Policy0
	Policy1 = braid.Policy1
	Policy2 = braid.Policy2
	Policy3 = braid.Policy3
	Policy4 = braid.Policy4
	Policy5 = braid.Policy5
	Policy6 = braid.Policy6
)

// AllBraidPolicies lists the seven policies (the Figure 6 x-axis).
var AllBraidPolicies = braid.AllPolicies

// BraidResult reports one braid simulation (one Figure 6 bar).
type BraidResult = braid.Result

// BraidArch is the tiled double-defect floorplan a recorded schedule
// was discovered on.
type BraidArch = braid.Arch

// BraidScheduleEntry is one committed placement of a static braid
// schedule.
type BraidScheduleEntry = braid.ScheduleEntry

// ReplayBraidSchedule independently validates a recorded static
// schedule: every op scheduled, dependencies respected, no overlapping
// resource claims.
func ReplayBraidSchedule(c *Circuit, a *BraidArch, entries []BraidScheduleEntry) error {
	return braid.Replay(c, a, entries)
}

// --- Planar backend (Multi-SIMD + teleportation) ---

// SIMDConfig sizes the Multi-SIMD machine.
type SIMDConfig = simd.Config

// SIMDSchedule is a Multi-SIMD execution plan.
type SIMDSchedule = simd.Schedule

// SIMDMove is one teleportation in a Multi-SIMD schedule's move list.
type SIMDMove = simd.Move

// TeleportConfig sets EPR-network parameters.
type TeleportConfig = teleport.Config

// TeleportResult reports one EPR-distribution run.
type TeleportResult = teleport.Result

// PrefetchAll launches every EPR pair at cycle zero (the §8.1 baseline).
const PrefetchAll = teleport.PrefetchAll

// EPRDistributor owns reusable EPR-distribution scratch: repeated
// distributions through one distributor (a window sweep, a batch of
// schedules) are allocation-free in steady state.
type EPRDistributor = teleport.Distributor

// NewEPRDistributor returns an empty reusable distributor.
func NewEPRDistributor() *EPRDistributor { return teleport.NewDistributor() }

// JITWindow returns the just-in-time window heuristic for a schedule.
func JITWindow(s *SIMDSchedule, cfg TeleportConfig) int64 { return teleport.JITWindow(s, cfg) }

// SweepEPRWindows runs the §8.1 window-size sensitivity study.
func SweepEPRWindows(s *SIMDSchedule, windows []int64, cfg TeleportConfig) ([]TeleportResult, error) {
	return teleport.SweepWindowsContext(context.TODO(), s, windows, cfg)
}

// --- Design-space toolflow (Figures 7-9) ---

// AppModel is a characterized application plus its scaling model.
type AppModel = toolflow.AppModel

// DesignPoint is one evaluated (app, K, p_P) configuration.
type DesignPoint = toolflow.DesignPoint

// BoundaryPoint is one (p_P, K*) sample of a Figure 9 line.
type BoundaryPoint = toolflow.BoundaryPoint

// Evaluate costs one design point.
func Evaluate(m AppModel, totalOps, physicalError float64) (DesignPoint, error) {
	return toolflow.Evaluate(m, totalOps, physicalError)
}

// Crossover returns the computation size where double-defect codes
// overtake planar codes in space-time cost.
func Crossover(m AppModel, physicalError float64) (kStar float64, ok bool) {
	return toolflow.Crossover(m, physicalError)
}

// Curve evaluates a log-spaced K sweep (Figures 7 and 8).
func Curve(m AppModel, physicalError float64, fromExp, toExp, pointsPerDecade int) ([]DesignPoint, error) {
	return toolflow.CurveContext(context.TODO(), m, physicalError, fromExp, toExp, pointsPerDecade)
}

// Boundary sweeps error rates, returning the Figure 9 line for an app.
func Boundary(m AppModel, errorRates []float64) []BoundaryPoint {
	return toolflow.Boundary(m, errorRates)
}

// Figure9ErrorRates is the paper's p_P sweep (1e-8 … 1e-3).
func Figure9ErrorRates() []float64 { return toolflow.Figure9ErrorRates() }

// ModelFor picks a characterized model by name.
func ModelFor(models []AppModel, name string) (AppModel, error) {
	return toolflow.ModelFor(models, name)
}

// SurgeryPoint extends a DesignPoint with the lattice-surgery column
// (the paper's §8.2 alternative, quantified).
type SurgeryPoint = toolflow.SurgeryPoint

// EvaluateSurgery costs a design point under all three communication
// schemes (teleportation, braiding, lattice surgery).
func EvaluateSurgery(m AppModel, totalOps, physicalError float64) (SurgeryPoint, error) {
	return toolflow.EvaluateSurgery(m, totalOps, physicalError)
}

// --- Study records (BENCH_*.json) ---

// SweepCellResult is one machine-readable grid cell (BENCH_*.json).
type SweepCellResult = sweep.CellResult

// WriteSweepRecordsFile writes cells to path (the BENCH_*.json
// convention).
func WriteSweepRecordsFile(path string, cells []SweepCellResult) error {
	return sweep.WriteRecordsFile(path, cells)
}

// --- Device topology ---

// Device is a named, seeded physical-topology spec: which tiles of the
// fabric are dead, which links are disabled, and how much slower each
// surviving link is. Backends realize it deterministically at their own
// grid dims, so defective-device results are reproducible. A nil
// *Device (the default) is the perfect uniform grid.
type Device = device.Device

// DeviceTopology is one realized defect map (dead tiles, disabled and
// weighted links) at concrete grid dims.
type DeviceTopology = device.Topology

// Coord is the shared grid coordinate of tiles, junctions, and regions
// (used by Placement and by CustomDevice builders).
type Coord = device.Coord

// PerfectDevice returns the ideal uniform device: every backend on it
// is bit-identical to the pre-device pipeline.
func PerfectDevice() *Device { return device.Perfect() }

// RandomYieldDevice returns a device where each tile and link is
// independently defective with probability frac (and a same-sized
// fraction of surviving links runs at twice the ideal latency).
func RandomYieldDevice(frac float64, seed int64) *Device { return device.RandomYield(frac, seed) }

// ClusteredDefectsDevice returns a device whose dead tiles clump into
// contiguous patches — the spatially correlated fabrication-defect
// model.
func ClusteredDefectsDevice(frac float64, seed int64) *Device {
	return device.ClusteredDefects(frac, seed)
}

// CustomDevice returns a device realized by an arbitrary builder,
// called on a fresh perfect topology at the grid dims each backend
// requests.
func CustomDevice(name string, seed int64, build func(*DeviceTopology, *rand.Rand)) *Device {
	return device.Custom(name, seed, build)
}

// --- Coupling graphs & calibration ---

// CouplingGraph is a grid-embedded coupling pattern: which couplers of
// the square fabric a device family actually ships. The square graph is
// the complete pattern; other graphs subtract edges.
type CouplingGraph = device.CouplingGraph

// SquareGraph returns the complete square coupling pattern (a device
// on it is the perfect device).
func SquareGraph() *CouplingGraph { return device.SquareGraph() }

// HeavyHexGraph returns the heavy-hexagon coupling pattern: all
// horizontal couplers, vertical rungs only every fourth column
// (alternating offset per row), degree ≤ 3 everywhere.
func HeavyHexGraph() *CouplingGraph { return device.HeavyHexGraph() }

// ParseCouplingGraph loads a custom coupling pattern from its versioned
// JSON unit-cell form; malformed specs fail with ErrBadConfig.
func ParseCouplingGraph(data []byte) (*CouplingGraph, error) {
	return device.ParseCouplingGraph(data)
}

// LoadCouplingGraph reads a coupling pattern spec from r.
func LoadCouplingGraph(r io.Reader) (*CouplingGraph, error) { return device.LoadCouplingGraph(r) }

// HeavyHexDevice returns a device on the heavy-hexagon coupling
// pattern.
func HeavyHexDevice(seed int64) *Device { return device.HeavyHex(seed) }

// DeviceOnGraph returns a device realized on an arbitrary coupling
// pattern (the square graph returns the perfect device).
func DeviceOnGraph(g *CouplingGraph, seed int64) *Device { return device.OnGraph(g, seed) }

// Calibration is one versioned calibration snapshot: per-qubit T1/T2
// and readout error, per-coupler gate error and latency multiplier.
// Attached to a Device (Device.WithCalibration) it realizes as
// heterogeneous link weights and per-tile error rates that routing,
// placement, timing, and the logical-rate model all price.
type Calibration = device.Calibration

// QubitCal and CouplerCal are the snapshot's entry types.
type (
	QubitCal   = device.QubitCal
	CouplerCal = device.CouplerCal
)

// ParseCalibration loads a snapshot from its versioned JSON form;
// malformed or out-of-range entries fail with ErrBadConfig.
func ParseCalibration(data []byte) (*Calibration, error) { return device.ParseCalibration(data) }

// LoadCalibration reads a snapshot from r.
func LoadCalibration(r io.Reader) (*Calibration, error) { return device.LoadCalibration(r) }

// SyntheticCalibration generates a deterministic, plausible snapshot
// for a rows×cols grid — the calibration sweep study's input.
func SyntheticCalibration(seed int64, rows, cols int) *Calibration {
	return device.SyntheticCalibration(seed, rows, cols)
}

// DefectSchedule is an ordered list of mid-execution coupler deaths
// consumed by the braid engine: in-flight braids holding a dead link
// are torn down and re-routed around the new mask.
type DefectSchedule = device.DefectSchedule

// DefectEvent kills one coupler at the start of a cycle.
type DefectEvent = device.DefectEvent

// RandomDefectSchedule draws a deterministic schedule of n distinct
// coupler deaths on a rows×cols grid with death cycles in [1, horizon].
func RandomDefectSchedule(seed int64, rows, cols, n int, horizon int64) *DefectSchedule {
	return device.RandomDefectSchedule(seed, rows, cols, n, horizon)
}

// DeriveSeed mixes a base seed with grid dims — the shared derivation
// behind every per-(seed, dims) realization in the toolchain.
func DeriveSeed(base int64, rows, cols int) int64 { return device.DeriveSeed(base, rows, cols) }

// CellSeed derives the per-cell seed of a sweep grid from the base seed
// and the cell index.
func CellSeed(base int64, cell int) int64 { return device.CellSeed(base, cell) }

// --- Layout ---

// Placement maps logical qubits to grid tiles.
type Placement = layout.Placement

// RowMajorPlacement is the naive baseline arrangement.
func RowMajorPlacement(n int) *Placement { return layout.RowMajor(n) }

// --- Error decoding (§2.3 machinery) ---

// DecoderLattice is a distance-d surface-code lattice for syndrome
// extraction and matching-based decoding.
type DecoderLattice = decoder.Lattice

// DecoderResult summarizes a logical-error Monte Carlo run.
type DecoderResult = decoder.Result

// NewDecoderLattice returns a distance-d lattice (d odd, >= 3).
func NewDecoderLattice(d int) (*DecoderLattice, error) { return decoder.NewLattice(d) }

// --- QASM interchange ---

// WriteQASM serializes a circuit in the flat QASM dialect.
func WriteQASM(w io.Writer, c *Circuit) error { return circuit.WriteQASM(w, c) }

// ReadQASM parses the flat QASM dialect.
func ReadQASM(r io.Reader) (*Circuit, error) { return circuit.ReadQASM(r) }
