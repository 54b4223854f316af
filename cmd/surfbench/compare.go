package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchDef is the part of BENCHMARK.json compare needs.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// rule is how one metric is judged: its direction, and its regression
// bound as a share of the parent's median (0 for per-layer metrics,
// which carry no bound).
type rule struct {
	lowerBetter bool
	bound       float64
}

func (d benchDef) rules() map[string]rule {
	out := map[string]rule{}
	for _, m := range d.EndToEnd {
		out[m.Name] = rule{lowerBetter: m.Better == "lower", bound: m.Bound}
	}
	for _, m := range d.PerLayer {
		out[m.Name] = rule{lowerBetter: m.Better == "lower"}
	}
	return out
}

// side summarizes one commit's runs of one (workload, metric).
type side struct{ q1, med, q3 float64 }

// judgement is one compare row's outcome.
type judgement struct {
	parent, change side
	wins, pairs    int
	verdict        string
}

// judge applies the benchmark's acceptance rules to paired runs of the
// parent (p) and the change (c), paired by index:
//
//   - unresolved: either side's spread (IQR over median) exceeds the
//     bound, unless every change run beats every parent run;
//   - regression: the change's median is worse than the parent's by
//     more than the bound;
//   - improved: the change wins at least 9/10 of the pairs (ties count
//     for neither) and the medians differ by more than the parent's IQR;
//   - worse: the same rule with the sides swapped (per-layer metrics
//     only; an end-to-end metric within its bound is "same");
//   - same: none of the above.
func judge(p, c []float64, r rule) judgement {
	var j judgement
	j.parent.q1, j.parent.med, j.parent.q3 = quartiles(p)
	j.change.q1, j.change.med, j.change.q3 = quartiles(c)
	better := func(a, b float64) bool {
		if r.lowerBetter {
			return a < b
		}
		return a > b
	}
	j.pairs = min(len(p), len(c))
	losses := 0
	for i := 0; i < j.pairs; i++ {
		switch {
		case better(c[i], p[i]):
			j.wins++
		case better(p[i], c[i]):
			losses++
		}
	}
	allBetter := len(p) > 0 && len(c) > 0
	for _, cv := range c {
		for _, pv := range p {
			if !better(cv, pv) {
				allBetter = false
			}
		}
	}
	rel := func(s side) float64 { return (s.q3 - s.q1) / math.Abs(s.med) }
	worseBy := (j.change.med - j.parent.med) / math.Abs(j.parent.med)
	if !r.lowerBetter {
		worseBy = -worseBy
	}
	iqr := j.parent.q3 - j.parent.q1
	gap := math.Abs(j.change.med - j.parent.med)
	switch {
	case r.bound > 0 && (rel(j.parent) > r.bound || rel(j.change) > r.bound) && !allBetter:
		j.verdict = "unresolved"
	case r.bound > 0 && worseBy > r.bound:
		j.verdict = "regression"
	case 10*j.wins >= 9*j.pairs && j.pairs > 0 && better(j.change.med, j.parent.med) && gap > iqr:
		j.verdict = "improved"
	case r.bound == 0 && 10*losses >= 9*j.pairs && j.pairs > 0 && better(j.parent.med, j.change.med) && gap > iqr:
		j.verdict = "worse"
	default:
		j.verdict = "same"
	}
	return j
}

// loadRecords reads the result records (surfbench -o) matching a glob,
// ordered by seed so parent and change runs pair up seed by seed.
func loadRecords(pattern string) ([]record, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no result files match %q", pattern)
	}
	var out []record
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, r)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seed < out[j].Seed })
	return out, nil
}

// compareMain implements `surfbench compare`: one row per (workload,
// metric) with each side's median and quartiles and the verdict. It
// exits 1 when any end-to-end metric is a regression or unresolved.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("surfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	defPath := fs.String("bench", "BENCHMARK.json", "benchmark definition: metric directions and bounds")
	parentGlob := fs.String("parent", "", "glob of the parent commit's result files")
	changeGlob := fs.String("change", "", "glob of the change's result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	data, err := os.ReadFile(*defPath)
	if err != nil {
		fmt.Fprintln(stderr, "surfbench compare:", err)
		return 2
	}
	var def benchDef
	if err := json.Unmarshal(data, &def); err != nil {
		fmt.Fprintln(stderr, "surfbench compare:", err)
		return 2
	}
	parent, err := loadRecords(*parentGlob)
	if err != nil {
		fmt.Fprintln(stderr, "surfbench compare: parent:", err)
		return 2
	}
	change, err := loadRecords(*changeGlob)
	if err != nil {
		fmt.Fprintln(stderr, "surfbench compare: change:", err)
		return 2
	}
	rules := def.rules()
	type key struct{ workload, metric string }
	vals := [2]map[key][]float64{{}, {}}
	units := map[string]string{}
	for s, recs := range [][]record{parent, change} {
		for _, r := range recs {
			for name, m := range r.Metrics {
				k := key{r.Workload, name}
				vals[s][k] = append(vals[s][k], m.Value)
				units[name] = m.Unit
			}
		}
	}
	var keys []key
	for k := range vals[0] {
		if _, ok := vals[1][k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	status := 0
	fmt.Fprintf(stdout, "%-14s %-36s %-6s %28s %28s %7s  %s\n",
		"workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, k := range keys {
		r := rules[k.metric]
		j := judge(vals[0][k], vals[1][k], r)
		fmt.Fprintf(stdout, "%-14s %-36s %-6s %10.4g [%7.4g,%7.4g] %10.4g [%7.4g,%7.4g] %3d/%-3d  %s\n",
			k.workload, k.metric, units[k.metric],
			j.parent.med, j.parent.q1, j.parent.q3, j.change.med, j.change.q1, j.change.q3,
			j.wins, j.pairs, j.verdict)
		if r.bound > 0 && (j.verdict == "regression" || j.verdict == "unresolved") {
			status = 1
		}
	}
	return status
}
