package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"surfcomm"
)

// loadBenchmark reads the repository's BENCHMARK.json.
func loadBenchmark(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range def.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

// checkMetrics asserts a result carries exactly the named metrics, each
// with its unit.
func checkMetrics(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(got), len(want))
	}
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("metric %s not emitted", name)
		} else if m.Unit != unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
}

func runShort(t *testing.T, workload string, trace int) result {
	t.Helper()
	dir := t.TempDir()
	var out bytes.Buffer
	res, err := benchmark(options{
		workload: workload, seed: goldenSeed, seconds: 0.5, trace: trace,
		warmup: 100 * time.Millisecond, setups: 1, workdir: dir,
		spans: filepath.Join(dir, "spans.json"),
	}, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	if !res.Correct {
		t.Fatalf("%s: answers did not check out\n%s", workload, out.String())
	}
	if res.Attempted == 0 || res.Failed != 0 {
		t.Fatalf("%s: %d attempted, %d failed", workload, res.Attempted, res.Failed)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Attempted != res.Attempted {
		t.Fatalf("%s: last line is not the result (%v): %s", workload, err, lines[len(lines)-1])
	}
	return res
}

// Every workload runs briefly at seed 1 with its answer key and oracles
// checked, and reports every end-to-end metric BENCHMARK.json names.
func TestWorkloadsMeetTheContract(t *testing.T) {
	t.Parallel()
	e2e, _ := loadBenchmark(t)
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			checkMetrics(t, runShort(t, w, 0).Metrics, e2e)
		})
	}
}

// A traced run reports every per-layer metric, with no failures, and
// writes its spans.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	t.Parallel()
	_, layers := loadBenchmark(t)
	res := runShort(t, "decode-stream", 1)
	checkMetrics(t, res.Metrics, layers)
	if f := res.Metrics["fail_frac"].Value; f != 0 {
		t.Errorf("fail_frac = %g", f)
	}
	for _, name := range []string{"client.self_us", "service.handler_us", "decoder.server_us", "decoder.mc_trial_us.mwpm", "braid.compile_ms"} {
		if v := res.Metrics[name].Value; v <= 0 {
			t.Errorf("%s = %g, want a positive measurement", name, v)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		vals []float64
		p    float64
		want float64
	}{
		{ten, 50, 5},
		{ten, 90, 9},
		{ten, 91, 10},
		{ten, 100, 10},
		{ten, 1, 1},
		{[]float64{7}, 50, 7},
		{nil, 50, 0},
	} {
		if got := percentile(tc.vals, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", tc.vals, tc.p, got, tc.want)
		}
	}
}

// quartiles matches Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vals       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 4}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(tc.vals)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.vals, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestJudgeVerdicts(t *testing.T) {
	lower := rule{lowerBetter: true, bound: 0.05}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		parent []float64
		change []float64
		r      rule
		want   string
	}{
		{"identical runs", base, base, lower, "same"},
		{"small slowdown within the bound", base, shift(3), lower, "same"},
		{"slowdown past the bound", base, shift(8), lower, "regression"},
		{"clear speedup", base, shift(-8), lower, "improved"},
		{"speedup of a higher-is-better metric", base, shift(8), rule{bound: 0.05}, "improved"},
		{"spread wider than the bound", []float64{80, 120, 90, 110, 100, 70, 130, 100, 95, 105}, base, lower, "unresolved"},
		{"wide spread but every change run better", []float64{80, 120, 90, 110, 100, 70, 130, 100, 95, 105}, shift(-40), lower, "improved"},
		{"per-layer slowdown", base, shift(8), rule{lowerBetter: true}, "worse"},
	} {
		if got := judge(tc.parent, tc.change, tc.r).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// compare reads result records, pairs them by seed, and fails on an
// end-to-end regression.
func TestCompareFlagsRegressions(t *testing.T) {
	dir := t.TempDir()
	write := func(side string, seed int64, p50 float64) {
		data, err := json.Marshal(record{Workload: "serve-hot", Seed: seed, result: result{
			Correct: true, Attempted: 100,
			Metrics: map[string]metric{"p50_ms": {Value: p50, Unit: "ms"}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, side+string(rune('a'+seed))+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for s := int64(0); s < 10; s++ {
		write("parent", s, 1.0+0.001*float64(s))
		write("same", s, 1.0+0.001*float64(9-s))
		write("slow", s, 1.5+0.001*float64(s))
	}
	run := func(change string) (int, string) {
		var out, errOut bytes.Buffer
		code := compareMain([]string{"-bench", "../../BENCHMARK.json",
			"-parent", filepath.Join(dir, "parent*.json"), "-change", filepath.Join(dir, change+"*.json")}, &out, &errOut)
		return code, out.String() + errOut.String()
	}
	if code, out := run("same"); code != 0 || !strings.Contains(out, "same") {
		t.Errorf("same-speed change: exit %d\n%s", code, out)
	}
	if code, out := run("slow"); code != 1 || !strings.Contains(out, "regression") {
		t.Errorf("slower change: exit %d\n%s", code, out)
	}
}

// The modular-edit generator splices edits into the program text; the
// result must be exactly what MutateModule and the canonical writer
// produce, or the benchmark would measure a different edit.
func TestModularSpliceMatchesMutateModule(t *testing.T) {
	w := &modularEdit{}
	if err := w.inputs(7); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int64{0, 1, 15, 16, 31, 199, 12345} {
		p, err := surfcomm.MutateModule(w.base, w.stages[i%modularStages], w.variant(i))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := w.programText(i), surfcomm.ProgramQASMString(p); got != want {
			t.Fatalf("op %d: spliced program differs from MutateModule's", i)
		}
	}
}
