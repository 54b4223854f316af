package teleport

import (
	"context"
	"math/rand"
	"testing"

	"surfcomm/internal/device"
)

// BenchmarkDistributeDevices prices one planar compile's distribution
// stage: the GSE schedule at its simd.ConfigFor shape and JIT window,
// through the package-level DistributeContext, so each op realizes the
// device and builds its routing tables afresh, as PlanarBackend does.
// The defective device is TestDisabledLinkDetours' one dead link on the
// factory row.
func BenchmarkDistributeDevices(b *testing.B) {
	s := gseSchedule(b)
	oneDeadLink := device.Custom("one-dead-link", 0, func(topo *device.Topology, _ *rand.Rand) {
		topo.DisableLink(
			device.Coord{Row: topo.Rows() - 1, Col: 0},
			device.Coord{Row: topo.Rows() - 1, Col: 1},
		)
	})
	for _, dev := range []*device.Device{device.Perfect(), oneDeadLink} {
		b.Run(dev.Preset(), func(b *testing.B) {
			cfg := Config{Device: dev}
			w := JITWindow(s, cfg)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := DistributeContext(context.Background(), s, w, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
