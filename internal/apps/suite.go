package apps

import (
	"math"

	"surfcomm/internal/circuit"
	"surfcomm/internal/scerr"
)

// Workload pairs a generated circuit with its suite name.
type Workload struct {
	Name    string
	Circuit *circuit.Circuit
}

// Table2Suite returns the four applications at the characterization
// sizes used for the Table 2 reproduction: sizes are chosen so the
// measured parallelism factors land in the paper's regimes
// (GSE ~1.2, SQ ~1.5, SHA-1 ~29, IM ~66).
func Table2Suite() []Workload {
	return []Workload{
		{Name: "GSE", Circuit: GSE(GSEConfig{M: 10, Steps: 2})},
		{Name: "SQ", Circuit: SQ(SQConfig{N: 8, Iters: 2})},
		{Name: "SHA-1", Circuit: SHA1(SHA1Config{Rounds: 2, WordWidth: 32})},
		{Name: "IM", Circuit: Ising(IsingConfig{N: 96, Steps: 2}, true)},
	}
}

// Fig6Suite returns the four applications at braid-simulation scale:
// the same shapes, sized so a full seven-policy sweep of the tiled
// architecture runs in seconds (word width reduced for SHA-1, chain
// shortened for IM). Relative parallelism ordering is preserved:
// GSE < SQ << SHA-1, IM.
func Fig6Suite() []Workload {
	return []Workload{
		{Name: "GSE", Circuit: GSE(GSEConfig{M: 10, Steps: 2})},
		{Name: "SQ", Circuit: SQ(SQConfig{N: 8, Iters: 2})},
		{Name: "SHA-1", Circuit: SHA1(SHA1Config{Rounds: 1, WordWidth: 16})},
		{Name: "IM", Circuit: Ising(IsingConfig{N: 64, Steps: 2}, true)},
	}
}

// IMVariants returns the two inlining configurations of the Ising model
// evaluated in Figure 9 (fully inlined exposes more parallelism).
func IMVariants(n, steps int) []Workload {
	return []Workload{
		{Name: "IM_Semi_Inlined", Circuit: Ising(IsingConfig{N: n, Steps: steps}, false)},
		{Name: "IM_Fully_Inlined", Circuit: Ising(IsingConfig{N: n, Steps: steps}, true)},
	}
}

// ReferenceSuite returns the applications characterized for Figures
// 7–9: GSE, SQ and SHA-1 at their Figure 6 sizes plus both Ising
// inlining variants at 96 spins.
func ReferenceSuite() []Workload {
	return append([]Workload{
		{Name: "GSE", Circuit: GSE(GSEConfig{M: 10, Steps: 2})},
		{Name: "SQ", Circuit: SQ(SQConfig{N: 8, Iters: 2})},
		{Name: "SHA-1", Circuit: SHA1(SHA1Config{Rounds: 1, WordWidth: 16})},
	}, IMVariants(96, 2)...)
}

// Scaling models how an application's logical footprint grows with
// total computation size K (the 1/p_L axis of Figures 7-9). Qubit
// counts follow each generator's allocation; the functions invert the
// closed-form op counts.
type Scaling struct {
	Name string
	// QubitsForOps returns the logical data-qubit count when the app is
	// sized so its total logical op count is totalOps.
	QubitsForOps func(totalOps float64) float64
}

// ScalingFor returns the scaling model for a suite application name.
// Recognized names: GSE, SQ, SHA-1, IM, IM_Semi_Inlined,
// IM_Fully_Inlined.
func ScalingFor(name string) (Scaling, error) {
	switch name {
	case "GSE":
		// Steps scale with M (longer evolution for bigger molecules):
		// K ≈ perStep(M)·M with perStep ≈ 78M (rotation depth 8), so
		// M ≈ sqrt(K/78); logical qubits = M+1.
		return Scaling{Name: name, QubitsForOps: func(k float64) float64 {
			m := math.Sqrt(k / 78)
			if m < 2 {
				m = 2
			}
			return m + 1
		}}, nil
	case "SQ":
		// Grover: K grows as 2^(n/2); invert numerically. Logical
		// qubits = in(n) + work(n/2) + ladder(n-2) + phase ≈ 2.5n-1.
		return Scaling{Name: name, QubitsForOps: func(k float64) float64 {
			n := sqBitsForOps(k)
			return 2.5*n - 1
		}}, nil
	case "SHA-1":
		// Fixed register file; longer messages add blocks, not qubits.
		q := float64(27*32 + PrefixAdderAncillas(32))
		return Scaling{Name: name, QubitsForOps: func(float64) float64 { return q }}, nil
	case "IM", "IM_Semi_Inlined", "IM_Fully_Inlined":
		// Steps scale with N: K ≈ 19·(2N−1)·N ≈ 38N², so N ≈ sqrt(K/38).
		return Scaling{Name: name, QubitsForOps: func(k float64) float64 {
			n := math.Sqrt(k / 38)
			if n < 2 {
				n = 2
			}
			return n
		}}, nil
	}
	return Scaling{}, scerr.UnknownModel("apps: no scaling model for %q", name)
}

// sqBitsForOps inverts SQOpsAt: the (fractional) register width n whose
// optimally-iterated Grover run executes k logical ops.
func sqBitsForOps(k float64) float64 {
	lo, hi := 4, 400
	if SQOpsAt(lo) >= k {
		return float64(lo)
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if SQOpsAt(mid) < k {
			lo = mid
		} else {
			hi = mid
		}
	}
	// Log-linear interpolation between lo and hi.
	kl, kh := math.Log(SQOpsAt(lo)), math.Log(SQOpsAt(hi))
	t := (math.Log(k) - kl) / (kh - kl)
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return float64(lo) + t
}
