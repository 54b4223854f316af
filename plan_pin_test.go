package surfcomm_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"surfcomm"
)

// pinnedPlans holds the planDigest (metrics plus every recorded path)
// of each compile in TestPlanDigestsPinned, keyed
// device/workload/backend/policy. "unroutable" pins a compile that must
// fail with ErrUnroutable.
var pinnedPlans = map[string]string{
	"perfect/GSE/braid/p0":     "8b7b320eaa3dc440",
	"perfect/GSE/braid/p4":     "89d01fc819c1b379",
	"perfect/GSE/braid/p6":     "4020b46e70871a8e",
	"perfect/GSE/planar/p0":    "101bf3a9f0ba1432",
	"perfect/GSE/surgery/p0":   "a1d4c0503d20fe1b",
	"perfect/GSE/surgery/p4":   "17721c0b66de323f",
	"perfect/GSE/surgery/p6":   "e72b1a4f950b9ec7",
	"perfect/SQ/braid/p0":      "782302dce3f9d45e",
	"perfect/SQ/braid/p4":      "4905280cc256fb67",
	"perfect/SQ/braid/p6":      "16873e5f34f19637",
	"perfect/SQ/planar/p0":     "29fb916980be67bc",
	"perfect/SQ/surgery/p0":    "adfaa7b2f3a38785",
	"perfect/SQ/surgery/p4":    "e4a084717faf121c",
	"perfect/SQ/surgery/p6":    "84440e8cc8186d66",
	"perfect/IM/braid/p0":      "1b722bc780fec7ac",
	"perfect/IM/braid/p4":      "ed284c6f73aa468d",
	"perfect/IM/braid/p6":      "030eaa437caa983a",
	"perfect/IM/planar/p0":     "a970051f1196b316",
	"perfect/IM/surgery/p0":    "c304e3b8fee521aa",
	"perfect/IM/surgery/p4":    "f1054497b5574cc1",
	"perfect/IM/surgery/p6":    "502ddd1bae89a43c",
	"perfect/SHA-1/braid/p0":   "1f22726856abd6c4",
	"perfect/SHA-1/braid/p4":   "231d464942a1d420",
	"perfect/SHA-1/braid/p6":   "7a54c1aabf5d7202",
	"perfect/SHA-1/planar/p0":  "0dd355993093c3e9",
	"perfect/SHA-1/surgery/p0": "166ff802e4e7c0fe",
	"perfect/SHA-1/surgery/p4": "78f45ed7e909896c",
	"perfect/SHA-1/surgery/p6": "061e5dd05e6eb650",

	"yield/GSE/braid/p0":     "932afe4d346d8cec",
	"yield/GSE/braid/p4":     "6fdc34822e96c889",
	"yield/GSE/braid/p6":     "8141dca713fc35ec",
	"yield/GSE/planar/p0":    "101bf3a9f0ba1432",
	"yield/GSE/surgery/p0":   "eed4927261415d56",
	"yield/GSE/surgery/p4":   "bd2f97c26022fb08",
	"yield/GSE/surgery/p6":   "ce09c09b9d5a9981",
	"yield/SQ/braid/p0":      "e1f9dd811659bff5",
	"yield/SQ/braid/p4":      "60d3287d5869da76",
	"yield/SQ/braid/p6":      "00c8d3bcfb174d73",
	"yield/SQ/planar/p0":     "29fb916980be67bc",
	"yield/SQ/surgery/p0":    "798100418c64a999",
	"yield/SQ/surgery/p4":    "738b6c38f060cf50",
	"yield/SQ/surgery/p6":    "7b1f82cabfea4311",
	"yield/IM/braid/p0":      "209705a8f49a3ada",
	"yield/IM/braid/p4":      "67a2264d794d3a29",
	"yield/IM/braid/p6":      "20544c484dd72d78",
	"yield/IM/planar/p0":     "77fff8f59f7a60c1",
	"yield/IM/surgery/p0":    "b345e35da42a33ae",
	"yield/IM/surgery/p4":    "92ca44e7792a4617",
	"yield/IM/surgery/p6":    "42a0721dc6f024e3",
	"yield/SHA-1/braid/p0":   "998de2ebd107a1ff",
	"yield/SHA-1/braid/p4":   "871c757cb5d0c74e",
	"yield/SHA-1/braid/p6":   "a910a0b5652779d6",
	"yield/SHA-1/planar/p0":  "0dd355993093c3e9",
	"yield/SHA-1/surgery/p0": "09812518e0fbc0e0",
	"yield/SHA-1/surgery/p4": "a93480870e26e2be",
	"yield/SHA-1/surgery/p6": "7400fff5367f0d22",

	"clustered/GSE/braid/p0":     "a7becffc845f89c4",
	"clustered/GSE/braid/p4":     "c1fa4d2468cc801b",
	"clustered/GSE/braid/p6":     "14b51b758901f711",
	"clustered/GSE/planar/p0":    "unroutable",
	"clustered/GSE/surgery/p0":   "9ecac0959b6640db",
	"clustered/GSE/surgery/p4":   "d9f03f9fedde7b8a",
	"clustered/GSE/surgery/p6":   "b79b99a1b89efbaf",
	"clustered/SQ/braid/p0":      "8877bc95ed7a1723",
	"clustered/SQ/braid/p4":      "56ba3c46f6f9b687",
	"clustered/SQ/braid/p6":      "3a3718053981d099",
	"clustered/SQ/planar/p0":     "unroutable",
	"clustered/SQ/surgery/p0":    "447ee244a00149ed",
	"clustered/SQ/surgery/p4":    "f4ce14752de8e8e7",
	"clustered/SQ/surgery/p6":    "cb160649b62fa1e4",
	"clustered/IM/braid/p0":      "6ddcaa9ba02c52d6",
	"clustered/IM/braid/p4":      "64de63d74c8004e9",
	"clustered/IM/braid/p6":      "d863ff95af205e1b",
	"clustered/IM/planar/p0":     "unroutable",
	"clustered/IM/surgery/p0":    "66a4fe46c636f3ae",
	"clustered/IM/surgery/p4":    "83ea9c3f95ee4b84",
	"clustered/IM/surgery/p6":    "ff6d3387be91d6d1",
	"clustered/SHA-1/braid/p0":   "unroutable",
	"clustered/SHA-1/braid/p4":   "unroutable",
	"clustered/SHA-1/braid/p6":   "unroutable",
	"clustered/SHA-1/planar/p0":  "unroutable",
	"clustered/SHA-1/surgery/p0": "unroutable",
	"clustered/SHA-1/surgery/p4": "unroutable",
	"clustered/SHA-1/surgery/p6": "unroutable",

	"heavy-hex/GSE/braid/p0":     "1cc2bef0e0363b54",
	"heavy-hex/GSE/braid/p4":     "8a36840c5590abcc",
	"heavy-hex/GSE/braid/p6":     "6d30f351a745c32f",
	"heavy-hex/GSE/planar/p0":    "101bf3a9f0ba1432",
	"heavy-hex/GSE/surgery/p0":   "58b5b22162862dae",
	"heavy-hex/GSE/surgery/p4":   "c3e280a2d3b5db30",
	"heavy-hex/GSE/surgery/p6":   "54c50398ad862954",
	"heavy-hex/SQ/braid/p0":      "cb2affcfe3db4e03",
	"heavy-hex/SQ/braid/p4":      "5389c5b71c349f46",
	"heavy-hex/SQ/braid/p6":      "f0f6e3ff3f987285",
	"heavy-hex/SQ/planar/p0":     "29fb916980be67bc",
	"heavy-hex/SQ/surgery/p0":    "475fa54cc2455504",
	"heavy-hex/SQ/surgery/p4":    "4666b8407ec68d9a",
	"heavy-hex/SQ/surgery/p6":    "6aee00963b8a485d",
	"heavy-hex/IM/braid/p0":      "9b3203ebdbe30ad4",
	"heavy-hex/IM/braid/p4":      "c137824e4a7c4b15",
	"heavy-hex/IM/braid/p6":      "bd8212bba3ae3a65",
	"heavy-hex/IM/planar/p0":     "a970051f1196b316",
	"heavy-hex/IM/surgery/p0":    "4ec6b69cac5fff56",
	"heavy-hex/IM/surgery/p4":    "f61313a8956a65b1",
	"heavy-hex/IM/surgery/p6":    "67af0d77927a1042",
	"heavy-hex/SHA-1/braid/p0":   "63ff143060b83a11",
	"heavy-hex/SHA-1/braid/p4":   "bed468a2ccebdbd4",
	"heavy-hex/SHA-1/braid/p6":   "dcf7659f62af06c3",
	"heavy-hex/SHA-1/planar/p0":  "2e9b9cb1c6848cdc",
	"heavy-hex/SHA-1/surgery/p0": "6cbbf9cf9c3c7cc0",
	"heavy-hex/SHA-1/surgery/p4": "6bfb8c8cc28984d1",
	"heavy-hex/SHA-1/surgery/p6": "b54e77898db72861",

	"calibrated/GSE/braid/p0":     "5582d4a404a91474",
	"calibrated/GSE/braid/p4":     "2e6cc029b0074746",
	"calibrated/GSE/braid/p6":     "8f8870da726806f5",
	"calibrated/GSE/planar/p0":    "a95e3b6b22a8412c",
	"calibrated/GSE/surgery/p0":   "1b9e18e258e8f14a",
	"calibrated/GSE/surgery/p4":   "30c1ac1c17032da9",
	"calibrated/GSE/surgery/p6":   "645bef35c81c00b2",
	"calibrated/SQ/braid/p0":      "519cb744d2f9ddfa",
	"calibrated/SQ/braid/p4":      "61ca7a3a2069c3c8",
	"calibrated/SQ/braid/p6":      "6b84dc12c99835b3",
	"calibrated/SQ/planar/p0":     "9cf8622ac69eeccd",
	"calibrated/SQ/surgery/p0":    "dd0310c1932a3a58",
	"calibrated/SQ/surgery/p4":    "e79ccfdefdf6b8bb",
	"calibrated/SQ/surgery/p6":    "cc50074603216cec",
	"calibrated/IM/braid/p0":      "f91733d535fa5947",
	"calibrated/IM/braid/p4":      "628a99125d2c9ed9",
	"calibrated/IM/braid/p6":      "45ba2095a52056a2",
	"calibrated/IM/planar/p0":     "8538d15b66e979dc",
	"calibrated/IM/surgery/p0":    "b18648cb845decaf",
	"calibrated/IM/surgery/p4":    "34767d4d12ca078d",
	"calibrated/IM/surgery/p6":    "195bb1eabfd457b2",
	"calibrated/SHA-1/braid/p0":   "e8a202164d862931",
	"calibrated/SHA-1/braid/p4":   "8ee75888d4d10db3",
	"calibrated/SHA-1/braid/p6":   "ad2a77c84cf22e4d",
	"calibrated/SHA-1/planar/p0":  "60ab3b03b03a01ef",
	"calibrated/SHA-1/surgery/p0": "bd1695da08dcfc5f",
	"calibrated/SHA-1/surgery/p4": "99c75f5f94b245a7",
	"calibrated/SHA-1/surgery/p6": "cbe42c12b725ee7c",

	"live/GSE/braid/p6":   "a9149e15f3382e7a",
	"live/GSE/surgery/p6": "dcdf0c7782a34191",
	"live/IM/braid/p6":    "a3861b056efd153c",
	"live/IM/surgery/p6":  "b971797a894a715d",
}

// TestPlanDigestsPinned pins the recorded schedules of every backend on
// a perfect, two defective, a heavy-hex and a calibrated device, and of
// the route-claiming backends under live coupler deaths. The committed
// artifacts pin only per-cell metrics; these digests pin the placement
// and every routed path, so a change to placement, device realization
// or braid routing that moves a single junction fails here.
func TestPlanDigestsPinned(t *testing.T) {
	ctx := context.Background()
	devices := []struct {
		name string
		dev  *surfcomm.Device
	}{
		{"perfect", surfcomm.PerfectDevice()},
		{"yield", surfcomm.RandomYieldDevice(0.03, 7)},
		{"clustered", surfcomm.ClusteredDefectsDevice(0.2, 7)},
		{"heavy-hex", surfcomm.HeavyHexDevice(7)},
		// The snapshot is larger than every workload's junction grid, so
		// each junction and link carries a calibrated rate.
		{"calibrated", surfcomm.PerfectDevice().WithCalibration(surfcomm.SyntheticCalibration(7, 16, 16))},
	}
	workloads := []surfcomm.Workload{
		{Name: "GSE", Circuit: must(surfcomm.NewGSE(surfcomm.GSEConfig{M: 10, Steps: 2}))},
		{Name: "SQ", Circuit: must(surfcomm.NewSQ(surfcomm.SQConfig{N: 8, Iters: 1}))},
		{Name: "IM", Circuit: must(surfcomm.NewIsing(surfcomm.IsingConfig{N: 32, Steps: 1}, true))},
		{Name: "SHA-1", Circuit: must(surfcomm.NewSHA1(surfcomm.SHA1Config{Rounds: 1, WordWidth: 4}))},
	}
	policies := []surfcomm.BraidPolicy{surfcomm.Policy0, surfcomm.Policy4, surfcomm.Policy6}
	seen := 0
	for _, d := range devices {
		tc, err := surfcomm.NewToolchain(surfcomm.WithDistance(5), surfcomm.WithSeed(1), surfcomm.WithDevice(d.dev))
		if err != nil {
			t.Fatal(err)
		}
		adaptive := false
		for _, w := range workloads {
			for _, b := range surfcomm.Backends() {
				ps := policies
				if b.Name() == "planar" {
					ps = ps[:1] // the planar backend has no braid policy
				}
				for _, p := range ps {
					key := fmt.Sprintf("%s/%s/%s/p%d", d.name, w.Name, b.Name(), int(p))
					plan, err := tc.Compile(ctx, b, w.Circuit, func(tg *surfcomm.Target) {
						tg.RecordSchedule = true
						tg.Policy = p
					})
					got := "unroutable"
					switch {
					case errors.Is(err, surfcomm.ErrUnroutable):
					case err != nil:
						t.Fatalf("%s: %v", key, err)
					default:
						got = fmt.Sprintf("%016x", planDigest(plan))
						if plan.Braid != nil && plan.Braid.AdaptiveRoutes > 0 {
							adaptive = true
						}
					}
					seen++
					if want, ok := pinnedPlans[key]; !ok || got != want {
						t.Errorf("%q: %q, // pinned %q", key, got, want)
					}
				}
			}
		}
		if !adaptive {
			t.Errorf("%s: no pinned compile escalated to an adaptive route", d.name)
		}
	}
	// Live defects on the perfect device: each schedule kills couplers
	// under in-flight braids, so every cell tears a braid down and
	// re-routes it around the new mask.
	live := map[string]*surfcomm.DefectSchedule{
		"GSE": surfcomm.RandomDefectSchedule(2, 6, 6, 12, 7500),
		"IM":  surfcomm.RandomDefectSchedule(1, 6, 6, 8, 1000),
	}
	tc, err := surfcomm.NewToolchain(surfcomm.WithDistance(5), surfcomm.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		sched := live[w.Name]
		if sched == nil {
			continue
		}
		for _, b := range surfcomm.Backends() {
			if b.Name() == "planar" {
				continue
			}
			key := fmt.Sprintf("live/%s/%s/p6", w.Name, b.Name())
			plan, err := tc.Compile(ctx, b, w.Circuit, func(tg *surfcomm.Target) {
				tg.RecordSchedule = true
				tg.Policy = surfcomm.Policy6
				tg.Defects = sched
			})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if plan.Braid.Reroutes == 0 {
				t.Errorf("%s: no in-flight braid was re-routed", key)
			}
			seen++
			if got, want := fmt.Sprintf("%016x", planDigest(plan)), pinnedPlans[key]; got != want {
				t.Errorf("%q: %q, // pinned %q", key, got, want)
			}
		}
	}
	if seen != len(pinnedPlans) {
		t.Errorf("compiled %d pinned plans, table has %d", seen, len(pinnedPlans))
	}
}
