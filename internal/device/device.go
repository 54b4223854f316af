// Package device models the physical topology of a superconducting
// surface-code machine: which tiles of the 2-D fabric are usable, which
// channel links between adjacent cells are disabled, and how much
// slower each surviving link is than the ideal. Real devices have
// fabrication defects, dead couplers, and non-uniform link quality (Wu
// et al. 2021 on surface-code mapping; Fowler et al. 2009 on per-link
// communication cost), so every geometry consumer of the toolchain —
// mesh routing, qubit placement, EPR distribution, braid timing — takes
// its view of the machine from this package instead of assuming an
// ideal uniform grid.
//
// A Device is a named, seeded topology *spec*; instantiating it at a
// concrete grid size yields a Topology, the realized defect map. The
// same (device, dims) pair always realizes the same Topology, so
// defective-device sweeps are deterministic and their records
// reproducible. The Perfect device realizes a defect-free grid and is
// not a separate code path: placement, braid routing and EPR
// distribution treat it like any other device (an all-alive View, a
// braid mesh whose mask holds nothing, next-hop tables over an
// all-alive region grid) and branch only on what a realized Topology
// shows — dead cells, disabled links, link weights, Calibrated.
package device

import (
	"fmt"
	"math/rand"
)

// Coord is a position on a 2-D grid (row-major) — the coordinate type
// shared by layout tiles, mesh junctions, and teleport regions.
type Coord struct {
	Row, Col int
}

// Manhattan returns the L1 distance between coordinates.
func Manhattan(a, b Coord) int {
	dr := a.Row - b.Row
	if dr < 0 {
		dr = -dr
	}
	dc := a.Col - b.Col
	if dc < 0 {
		dc = -dc
	}
	return dr + dc
}

// Adjacent reports whether two cells are one grid step apart.
func Adjacent(a, b Coord) bool {
	return Manhattan(a, b) == 1
}

// Preset names of the built-in device families.
const (
	PresetPerfect   = "perfect"
	PresetRandom    = "random-yield"
	PresetClustered = "clustered"
	PresetHeavyHex  = "heavy-hex"
)

// Device is a topology spec: a named defect model plus the seed and
// defect fraction that parameterize it. A nil *Device means Perfect.
type Device struct {
	preset string
	frac   float64
	seed   int64
	build  func(*Topology, *rand.Rand) // custom realization hook
	graph  *CouplingGraph              // coupling pattern; nil means square
	cal    *Calibration                // calibration overlay; nil means uniform
}

// Perfect returns the ideal uniform device: no dead tiles, no disabled
// links, all link weights 1. A nil Device is the same device. It
// realizes all-alive topologies, so placement sees every tile alive and
// the braid mesh masks nothing.
func Perfect() *Device { return &Device{preset: PresetPerfect} }

// RandomYield returns a device where each tile and each link is
// independently defective with probability frac, and a same-sized
// fraction of the surviving links is degraded to twice the ideal
// latency — the uncorrelated fabrication-yield model.
func RandomYield(frac float64, seed int64) *Device {
	return &Device{preset: PresetRandom, frac: clampFrac(frac), seed: seed}
}

// ClusteredDefects returns a device whose dead tiles clump into
// contiguous patches (fabrication defects are spatially correlated):
// cluster centers are drawn until the dead-tile budget frac·tiles is
// met, each killing a small disk of tiles, and every link touching a
// dead tile is disabled.
func ClusteredDefects(frac float64, seed int64) *Device {
	return &Device{preset: PresetClustered, frac: clampFrac(frac), seed: seed}
}

// Custom returns a device realized by an arbitrary builder, called on a
// fresh perfect Topology at the requested dims with a seeded RNG.
// Intended for tests and hand-measured device maps.
func Custom(name string, seed int64, build func(*Topology, *rand.Rand)) *Device {
	return &Device{preset: name, seed: seed, build: build}
}

// HeavyHex returns a device with the heavy-hexagon coupling pattern:
// the square fabric minus the vertical couplers the heavy-hex lattice
// does not ship (see HeavyHexGraph). No randomness — the seed only
// participates in realization-seed derivation for consistency with the
// other presets.
func HeavyHex(seed int64) *Device {
	return &Device{preset: PresetHeavyHex, seed: seed, graph: HeavyHexGraph()}
}

// OnGraph returns a device realized on an arbitrary coupling pattern.
// The complete square graph is the perfect device.
func OnGraph(g *CouplingGraph, seed int64) *Device {
	if g == nil || g.Name() == GraphSquare {
		return Perfect()
	}
	return &Device{preset: g.Name(), seed: seed, graph: g}
}

// WithCalibration returns a copy of the device carrying a calibration
// snapshot: every realized topology gains the snapshot's heterogeneous
// link weights and per-cell error rates (and reports Calibrated). A nil
// snapshot returns the device unchanged. The receiver may be nil (the
// perfect device).
func (d *Device) WithCalibration(cal *Calibration) *Device {
	if cal == nil {
		return d
	}
	var out Device
	if d != nil {
		out = *d
	} else {
		out.preset = PresetPerfect
	}
	out.cal = cal
	return &out
}

// Calibration returns the device's calibration snapshot (nil when
// uniform).
func (d *Device) Calibration() *Calibration {
	if d == nil {
		return nil
	}
	return d.cal
}

// Graph returns the device's coupling pattern (nil means the complete
// square mesh).
func (d *Device) Graph() *CouplingGraph {
	if d == nil {
		return nil
	}
	return d.graph
}

func clampFrac(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// IsPerfect reports whether the device realizes defect-free topologies.
// A nil Device is perfect; a coupling-graph or calibrated device never
// is.
func (d *Device) IsPerfect() bool {
	return d == nil || (d.preset == PresetPerfect && d.build == nil && d.graph == nil && d.cal == nil)
}

// Preset returns the device's preset (or custom) name.
func (d *Device) Preset() string {
	if d == nil {
		return PresetPerfect
	}
	return d.preset
}

// DefectFraction returns the device's defect fraction parameter.
func (d *Device) DefectFraction() float64 {
	if d == nil {
		return 0
	}
	return d.frac
}

// Seed returns the device's realization seed.
func (d *Device) Seed() int64 {
	if d == nil {
		return 0
	}
	return d.seed
}

// String names the device the way sweep records serialize it:
// "perfect", or "preset(p=…,seed=…)", with a "+cal:…" suffix naming
// the calibration snapshot's digest prefix when one is attached (the
// snapshot changes realized topologies, so it is part of the device
// identity — and of every compile digest built from it).
func (d *Device) String() string {
	if d.IsPerfect() {
		return PresetPerfect
	}
	s := fmt.Sprintf("%s(p=%g,seed=%d)", d.preset, d.frac, d.seed)
	if d.cal != nil {
		s += "+cal:" + shortDigest(d.cal.Digest())
	}
	return s
}

// shortDigest abbreviates a content digest for record strings and logs.
func shortDigest(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}

// Instance realizes the device at a rows×cols cell grid. Realization is
// deterministic: the same device and dims always produce the same
// Topology, regardless of call order or prior instantiations.
func (d *Device) Instance(rows, cols int) *Topology {
	t := NewTopology(rows, cols)
	if d.IsPerfect() {
		return t
	}
	// The realization RNG is derived from the seed and the dims so that
	// one spec instantiated at several grids (a tile grid for placement,
	// a junction grid for routing) stays deterministic per grid.
	rng := rand.New(rand.NewSource(DeriveSeed(d.seed, rows, cols)))
	switch {
	case d.build != nil:
		d.build(t, rng)
	case d.preset == PresetRandom:
		d.realizeRandom(t, rng)
	case d.preset == PresetClustered:
		d.realizeClustered(t, rng)
	}
	if d.graph != nil {
		d.graph.Apply(t)
	}
	if d.cal != nil {
		d.cal.Apply(t)
	}
	return t
}

// realizeRandom draws independent per-tile and per-link defects in a
// fixed order (tiles row-major, then horizontal links, then vertical
// links, then weight degradation) so the realization is reproducible.
func (d *Device) realizeRandom(t *Topology, rng *rand.Rand) {
	for r := 0; r < t.rows; r++ {
		for c := 0; c < t.cols; c++ {
			if rng.Float64() < d.frac {
				t.DisableTile(Coord{Row: r, Col: c})
			}
		}
	}
	t.eachLink(func(a, b Coord) {
		if rng.Float64() < d.frac {
			t.DisableLink(a, b)
		}
	})
	t.eachLink(func(a, b Coord) {
		if !t.LinkDisabled(a, b) && rng.Float64() < d.frac {
			t.SetLinkWeight(a, b, 2)
		}
	})
}

// realizeClustered kills disks of tiles around random centers until the
// dead-tile budget is met; links touching dead tiles are disabled by
// DisableTile itself.
func (d *Device) realizeClustered(t *Topology, rng *rand.Rand) {
	budget := int(d.frac * float64(t.rows*t.cols))
	const radius = 1
	for guard := 0; t.DeadTiles() < budget && guard < 4*t.rows*t.cols; guard++ {
		center := Coord{Row: rng.Intn(t.rows), Col: rng.Intn(t.cols)}
		for dr := -radius; dr <= radius; dr++ {
			for dc := -radius; dc <= radius; dc++ {
				c := Coord{Row: center.Row + dr, Col: center.Col + dc}
				if t.InBounds(c) && Manhattan(center, c) <= radius && t.DeadTiles() < budget {
					t.DisableTile(c)
				}
			}
		}
	}
}
