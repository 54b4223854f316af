// Command surfbench is the repository's benchmark: one process starts
// an in-process serving fleet (two replicas, each over its own disk
// store, behind the consistent-hash router, all over loopback HTTP),
// drives one of five seeded workloads with a closed loop of at most two
// clients, checks every answer against the committed answer key or an
// oracle, and prints the end-to-end metrics. A traced run (-trace 1)
// prints the per-layer metrics instead and writes the spans it
// recorded.
//
//	bash cmd/surfbench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
//	bash cmd/surfbench/run.sh --workload serve-hot --trace 1 --spans spans.json
//	.bench_build/bin/surfbench compare -parent 'base/*.json' -change 'new/*.json'
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. A run whose answers do not check out
// prints correct=false and exits 1. See README.md for the workloads,
// the metrics and the layer map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics a traced run reports (see README.md for the
// end-to-end metric and workload each should move).
var perLayer = []metricDef{
	{"client.self_us", "us"},
	{"cluster.route_key_us", "us"},
	{"cluster.self_us", "us"},
	{"cluster.hop_us", "us"},
	{"cluster.failovers", "count"},
	{"service.handler_us", "us"},
	{"service.work_us", "us"},
	{"service.queue_wait_us", "us"},
	{"service.parse_us", "us"},
	{"service.hit_path_us", "us"},
	{"service.encode_us", "us"},
	{"service.lru_hit_frac", "frac"},
	{"service.disk_hit_frac", "frac"},
	{"service.miss_frac", "frac"},
	{"service.module_hit_frac", "frac"},
	{"service.shed", "count"},
	{"store.get_us", "us"},
	{"store.put_us", "us"},
	{"store.puts", "count"},
	{"store.hits", "count"},
	{"braid.compile_ms", "ms"},
	{"braid.surgery_ms", "ms"},
	{"braid.braids_per_op", "count"},
	{"simd.schedule_ms", "ms"},
	{"teleport.distribute_ms", "ms"},
	{"layout.place_ms", "ms"},
	{"partition.bisect_ms", "ms"},
	{"resource.estimate_us", "us"},
	{"modcompile.edit_ms", "ms"},
	{"modcompile.modules_compiled_per_op", "count"},
	{"modcompile.stitch_memo_hit_frac", "frac"},
	{"decoder.window_us.mwpm", "us"},
	{"decoder.window_us.unionfind", "us"},
	{"decoder.server_us", "us"},
	{"decoder.frame_us", "us"},
	{"decoder.workops_per_window", "count"},
	{"decoder.mc_trial_us.mwpm", "us"},
	{"decoder.mc_trial_us.unionfind", "us"},
	{"decoder.mc_decode_us", "us"},
	{"decoder.mc_sample_us", "us"},
	{"trace.overhead_frac", "frac"},
	{"trace.coverage_frac", "frac"},
	{"tail.p99_ms", "ms"},
	{"fail_frac", "frac"},
}

// workdir is the scratch directory for stores and spans, inside the
// checkout (.gitignore lists it).
var workdir = filepath.Join(".bench_build", "surfbench")

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	warmup   time.Duration // discarded warm-up before the measured phase
	setups   int           // untraced runs set up this many times; setup_s is the median
	workdir  string
	spans    string // traced runs: spans file
	out      string // optional result record for compare
	golden   string // non-empty: regenerate the answer key at this path
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is a result file for compare: the result plus what produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	result
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "surfbench:", err)
		os.Exit(2)
	}
	// A hung run must still end well inside the 180 s a run is allowed.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "surfbench: run exceeded 170 s")
		os.Exit(1)
	})
	res, err := benchmark(o, os.Stdout)
	watchdog.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "surfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("surfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run: %v", workloadNames))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the answer key covers seed 1")
	fs.Float64Var(&o.seconds, "seconds", 15, "measured phase length")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics and a spans file")
	fs.StringVar(&o.spans, "spans", "", "spans file of a traced run (default "+workdir+"/spans-<workload>-seed<seed>.json)")
	fs.StringVar(&o.out, "o", "", "also write the result with its workload and seed here, for compare")
	fs.StringVar(&o.golden, "update-golden", "", "regenerate this workload's answer-key section in the given file (seed 1)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, err := newWorkload(o.workload); err != nil {
		return o, err
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds < 0 {
		return o, errors.New("-seconds must be >= 0")
	}
	o.warmup, o.setups, o.workdir = 2*time.Second, 3, workdir
	if o.spans == "" {
		o.spans = filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	}
	return o, nil
}

// benchmark runs one workload and prints its report, the result line
// last.
func benchmark(o options, stdout io.Writer) (result, error) {
	runtime.GOMAXPROCS(2)
	gold, err := newGolden(o.seed, o.golden != "")
	if err != nil {
		return result{}, err
	}
	b := &bench{seed: o.seed, workdir: o.workdir, gold: gold}
	mode, setups := traceOff, o.setups
	if o.trace == 1 {
		b.tr = newTracer()
		mode, setups = traceAlternate, 1
	}

	var w workload
	var setupS []float64
	for k := 0; k < setups; k++ {
		if k > 0 {
			w.close()
			runtime.GC()
		}
		start := time.Now()
		if w, err = newWorkload(o.workload); err != nil {
			return result{}, err
		}
		if err := w.setup(b); err != nil {
			w.close()
			return result{}, fmt.Errorf("%s setup: %w", o.workload, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer w.close()

	r, err := measure(b, o.workload, w, o.warmup, time.Duration(o.seconds*float64(time.Second)), mode)
	if err != nil {
		return result{}, err
	}
	rss := peakRSSMB()
	res := result{Attempted: len(r.samples), Metrics: map[string]metric{}}
	for _, s := range r.samples {
		if s.failed {
			res.Failed++
		}
	}
	fmt.Fprintf(stdout, "surfbench %s seed=%d trace=%d: %d ops in %.2f s, %d failed\n",
		o.workload, o.seed, o.trace, res.Attempted, r.elapsed.Seconds(), res.Failed)

	if o.trace == 1 {
		vals, runs, err := layerMetrics(b, r)
		if err != nil {
			return result{}, err
		}
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
		}
		if err := writeSpans(o.spans, runs); err != nil {
			return result{}, fmt.Errorf("spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans: %s\n", o.spans)
		printMetrics(stdout, perLayer, res.Metrics, nil)
	} else {
		lat := latencies(r.samples, func(sample) bool { return true })
		ok := float64(len(lat))
		_, setupMedian, _ := quartiles(setupS)
		vals := map[string]float64{
			"ops_per_s":     ok / r.elapsed.Seconds(),
			"p50_ms":        percentile(lat, 50),
			"p90_ms":        percentile(lat, 90),
			"cpu_ms_per_op": ms(r.cpu) / float64(max(res.Attempted, 1)),
			"peak_rss_mb":   rss,
			"setup_s":       setupMedian,
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
		}
		beyond := len(lat) - int(math.Ceil(90*ok/100))
		printMetrics(stdout, endToEnd, res.Metrics, map[string]string{
			"p90_ms":  fmt.Sprintf("n=%d, %d beyond p90", len(lat), beyond),
			"setup_s": fmt.Sprintf("median of %d set-ups: %.3v", len(setupS), setupS),
		})
	}

	n, msgs := b.chk.mismatches()
	res.Correct = n == 0
	if res.Correct {
		fmt.Fprintln(stdout, "checks: every answer matched its answer key or oracle")
	} else {
		fmt.Fprintf(stdout, "checks: %d mismatches, first: %v\n", n, msgs)
	}
	if o.golden != "" {
		if err := gold.save(o.golden); err != nil {
			return result{}, err
		}
		fmt.Fprintf(stdout, "answer key updated: %s\n", o.golden)
	}
	if o.out != "" {
		data, err := json.Marshal(record{Workload: o.workload, Seed: o.seed, result: res})
		if err != nil {
			return result{}, err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return result{}, err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res, nil
}

func printMetrics(w io.Writer, defs []metricDef, vals map[string]metric, notes map[string]string) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %14.6g %-6s %s\n", d.name, vals[d.name].Value, d.unit, notes[d.name])
	}
}
