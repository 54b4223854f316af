package main

// The input generators below are surfbench's own copies of the
// surfload-style corpus builders. The benchmark owns them so that a
// later edit to cmd/surfload cannot silently change what the benchmark
// measures.

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"

	"surfcomm"
)

var (
	families = []string{"gse", "ising", "sq"}
	backends = []string{"braid", "planar", "surgery"}
)

// flatCircuit builds a flat application circuit of about q qubits.
func flatCircuit(family string, q int) (*surfcomm.Circuit, error) {
	switch family {
	case "gse":
		return surfcomm.NewGSE(surfcomm.GSEConfig{M: q - 1, Steps: 2})
	case "ising":
		return surfcomm.NewIsing(surfcomm.IsingConfig{N: q - 1, Steps: 2}, false)
	}
	// SQ uses 2.5n-1 qubits for an n-bit (even) search register.
	n := max(4, int(math.Round(float64(q+1)/2.5))&^1)
	return surfcomm.NewSQ(surfcomm.SQConfig{N: n, Iters: 1})
}

// qasmJSON renders a circuit as flat QASM, already escaped as a JSON
// string, so per-request bodies are built by concatenation.
func qasmJSON(c *surfcomm.Circuit) ([]byte, error) {
	var buf bytes.Buffer
	if err := surfcomm.WriteQASM(&buf, c); err != nil {
		return nil, err
	}
	return json.Marshal(buf.String())
}

// compileBody renders a /compile or /estimate request around escaped
// QASM; a negative seed leaves the replica's default seed in place.
func compileBody(qasm []byte, backend string, seed int64) []byte {
	b := make([]byte, 0, len(qasm)+64)
	b = append(b, `{"qasm":`...)
	b = append(b, qasm...)
	b = append(b, `,"backend":"`...)
	b = append(b, backend...)
	b = append(b, '"')
	if seed >= 0 {
		b = append(b, `,"seed":`...)
		b = strconv.AppendInt(b, seed, 10)
	}
	return append(b, '}')
}

// mix derives a non-negative 31-bit value from the benchmark seed and
// an input coordinate (splitmix64 finalizer per word).
func mix(vals ...int64) int64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h += uint64(v) + 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return int64(h >> 33)
}
