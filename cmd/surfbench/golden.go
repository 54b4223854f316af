package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"surfcomm/internal/service"
)

// goldenJSON is the committed seed-1 answer key (regenerate with
// -update-golden, one workload at a time).
//
//go:embed testdata/golden_seed1.json
var goldenJSON []byte

// goldenSeed is the only seed the answer key covers; other seeds run
// the oracle and self-consistency checks alone.
const goldenSeed = 1

// goldenOps is how many leading op indices of serve-miss and
// modular-edit the answer key pins.
const goldenOps = 200

// planTuple is the plan summary the answer key pins per request.
type planTuple struct {
	Backend        string  `json:"backend"`
	Cycles         int64   `json:"cycles"`
	PhysicalQubits float64 `json:"physical_qubits"`
	CommOps        int64   `json:"comm_ops"`
}

func tupleOf(p service.PlanSummary) planTuple {
	return planTuple{Backend: p.Backend, Cycles: p.Cycles, PhysicalQubits: p.PhysicalQubits, CommOps: p.CommOps}
}

// goldenFile is the answer key's on-disk form.
type goldenFile struct {
	Seed int64 `json:"seed"`
	// Plans maps a workload to the plan tuple of each input index: all
	// 256 serve-hot corpus entries, the first 200 ops of serve-miss and
	// modular-edit.
	Plans map[string][]planTuple `json:"plans"`
	// DecodeMCFailures maps a decode-mc cell to its failure count, which
	// is bit-identical at any worker count.
	DecodeMCFailures map[string]int `json:"decode_mc_failures"`
}

// golden checks answers against the answer key, or records them when
// the key is being regenerated.
type golden struct {
	mu     sync.Mutex
	want   *goldenFile // nil when the seed has no answer key
	record *goldenFile // non-nil while regenerating
}

func newGolden(seed int64, update bool) (*golden, error) {
	g := &golden{}
	if update {
		if seed != goldenSeed {
			return nil, fmt.Errorf("-update-golden needs -seed %d", goldenSeed)
		}
		g.record = &goldenFile{Seed: goldenSeed, Plans: map[string][]planTuple{}, DecodeMCFailures: map[string]int{}}
		return g, nil
	}
	if seed != goldenSeed {
		return g, nil
	}
	g.want = &goldenFile{}
	if err := json.Unmarshal(goldenJSON, g.want); err != nil {
		return nil, fmt.Errorf("golden file: %w", err)
	}
	return g, nil
}

// plan checks (or records) input i's plan tuple for a workload.
func (g *golden) plan(b *bench, workload string, i int64, got planTuple) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.record != nil {
		p := g.record.Plans[workload]
		for int64(len(p)) <= i {
			p = append(p, planTuple{})
		}
		p[i] = got
		g.record.Plans[workload] = p
		return
	}
	if g.want == nil {
		return
	}
	want := g.want.Plans[workload]
	if i >= int64(len(want)) {
		b.chk.failf("%s input %d: no answer-key entry", workload, i)
		return
	}
	if want[i] != got {
		b.chk.failf("%s input %d: plan %+v, answer key %+v", workload, i, got, want[i])
	}
}

// cell checks (or records) a decode-mc cell's failure count.
func (g *golden) cell(b *bench, label string, failures int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.record != nil {
		g.record.DecodeMCFailures[label] = failures
		return
	}
	if g.want == nil {
		return
	}
	want, ok := g.want.DecodeMCFailures[label]
	if !ok {
		b.chk.failf("decode-mc %s: no answer-key entry", label)
	} else if want != failures {
		b.chk.failf("decode-mc %s: %d failures, answer key %d", label, failures, want)
	}
}

// save merges the recorded sections into the answer key at path.
func (g *golden) save(path string) error {
	var f goldenFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	f.Seed = goldenSeed
	if f.Plans == nil {
		f.Plans = map[string][]planTuple{}
	}
	if f.DecodeMCFailures == nil {
		f.DecodeMCFailures = map[string]int{}
	}
	for w, p := range g.record.Plans {
		f.Plans[w] = p
	}
	for c, n := range g.record.DecodeMCFailures {
		f.DecodeMCFailures[c] = n
	}
	// One answer per line keeps the key reviewable in a diff.
	sep := func(first bool) string {
		if first {
			return ""
		}
		return ","
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\n \"seed\": %d,\n \"plans\": {", f.Seed)
	for k, w := range sortedKeys(f.Plans) {
		fmt.Fprintf(&buf, "%s\n  %q: [", sep(k == 0), w)
		for i, t := range f.Plans[w] {
			line, err := json.Marshal(t)
			if err != nil {
				return err
			}
			fmt.Fprintf(&buf, "%s\n   %s", sep(i == 0), line)
		}
		buf.WriteString("\n  ]")
	}
	buf.WriteString("\n },\n \"decode_mc_failures\": {")
	for k, c := range sortedKeys(f.DecodeMCFailures) {
		fmt.Fprintf(&buf, "%s\n  %q: %d", sep(k == 0), c, f.DecodeMCFailures[c])
	}
	buf.WriteString("\n }\n}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
