package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"surfcomm"
	"surfcomm/internal/braid"
	"surfcomm/internal/decoder"
	"surfcomm/internal/layout"
	"surfcomm/internal/modcompile"
	"surfcomm/internal/partition"
	"surfcomm/internal/service"
	"surfcomm/internal/simd"
	"surfcomm/internal/store"
	"surfcomm/internal/teleport"
)

// compilePath is a workload whose ops are /compile or /estimate
// requests through the router.
type compilePath interface {
	workload
	fleet() *fleet
	// request returns op i's endpoint and request.
	request(i int64) (string, service.Request, error)
	// work replays the ops' service-side work (resolve plus compile, or
	// estimate) in process and returns what each took.
	work(ops []int64) ([]time.Duration, error)
}

// Middle-band sizes: per-layer self times are means over the traced
// operations closest to the median latency, so the layers of "the
// median operation" add up to the client-observed p50.
const (
	bandHTTP   = 32
	bandWindow = 64
	bandCell   = 6
)

// replayMin is how long each cheap replay repeats, to average out
// timer resolution.
const replayMin = 20 * time.Millisecond

// layerMetrics computes every per-layer metric from a traced run. A
// boundary the workload does not cross is measured on a short traced
// probe of the workload that owns it (the HTTP layers on serve-hot, the
// /decode framing on decode-stream, the Monte Carlo trial on
// decode-mc), so every metric is a measurement on every workload. The
// returned runs include the probes, whose spans join the spans file.
func layerMetrics(b *bench, main *run) (map[string]float64, []*run, error) {
	m := map[string]float64{}
	runs := []*run{main}
	defer func() {
		for _, r := range runs[1:] {
			r.w.close()
		}
	}()
	probe := func(name string, warmup, d time.Duration) (*run, error) {
		w, err := newWorkload(name)
		if err != nil {
			return nil, err
		}
		if err := w.setup(b); err != nil {
			w.close()
			return nil, fmt.Errorf("probe %s: %w", name, err)
		}
		r, err := measure(b, "probe:"+name, w, warmup, d, traceAll)
		if err != nil {
			w.close()
			return nil, err
		}
		runs = append(runs, r)
		return r, nil
	}

	traced := latencies(main.samples, func(s sample) bool { return s.traced })
	untraced := latencies(main.samples, func(s sample) bool { return !s.traced })
	p50 := percentile(untraced, 50)
	m["trace.overhead_frac"] = percentile(traced, 50)/p50 - 1
	m["tail.p99_ms"] = percentile(untraced, 99)
	m["fail_frac"] = failFrac(main.samples)

	var err error
	httpRun := main
	if _, ok := main.w.(compilePath); !ok {
		if httpRun, err = probe("serve-hot", 200*time.Millisecond, time.Second); err != nil {
			return nil, nil, err
		}
	}
	httpTotal, err := httpLayers(b, httpRun, m)
	if err != nil {
		return nil, nil, fmt.Errorf("http layers: %w", err)
	}
	streamRun := main
	if _, ok := main.w.(*decodeStream); !ok {
		if streamRun, err = probe("decode-stream", 200*time.Millisecond, 500*time.Millisecond); err != nil {
			return nil, nil, err
		}
	}
	streamTotal := streamLayers(streamRun, m)
	mcRun := main
	if _, ok := main.w.(*decodeMC); !ok {
		// A zero-length phase still runs one whole pass over the grid.
		if mcRun, err = probe("decode-mc", 0, 0); err != nil {
			return nil, nil, err
		}
	}
	mcTotal, err := mcLayers(b, mcRun, m)
	if err != nil {
		return nil, nil, fmt.Errorf("monte carlo layers: %w", err)
	}
	// Coverage: the workload's own layer self times plus named gaps,
	// against the untraced client p50.
	switch main {
	case httpRun:
		m["trace.coverage_frac"] = httpTotal / p50
	case streamRun:
		m["trace.coverage_frac"] = streamTotal / p50
	default:
		m["trace.coverage_frac"] = mcTotal / p50
	}

	if err := engineLayers(b.seed, m); err != nil {
		return nil, nil, fmt.Errorf("engine replays: %w", err)
	}
	if err := modularLayers(b.seed, m); err != nil {
		return nil, nil, fmt.Errorf("modcompile replays: %w", err)
	}
	if err := windowLayers(b.seed, m); err != nil {
		return nil, nil, fmt.Errorf("decoder replays: %w", err)
	}
	return m, runs, nil
}

func failFrac(samples []sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	n := 0
	for _, s := range samples {
		if s.failed {
			n++
		}
	}
	return float64(n) / float64(len(samples))
}

// middle returns up to k kept samples closest to the kept median
// latency.
func middle(samples []sample, k int, keep func(sample) bool) []sample {
	var kept []sample
	for _, s := range samples {
		if keep(s) {
			kept = append(kept, s)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].lat < kept[j].lat })
	if len(kept) <= k {
		return kept
	}
	lo := len(kept)/2 - k/2
	return kept[lo : lo+k]
}

// httpLayers splits the median compile-path request into client, router,
// hop and replica self times, names the replica's non-work time as the
// queue-wait gap, and replays the same requests through the serving
// layers' public functions. It returns the decomposed total in ms.
func httpLayers(b *bench, r *run, m map[string]float64) (float64, error) {
	w := r.w.(compilePath)
	ops := byID(r.spans)
	mid := middle(r.samples, bandHTTP, func(s sample) bool {
		sp := ops[s.id]
		_, c := sp[spanClient]
		_, rt := sp[spanRouter]
		_, h := sp[spanHop]
		_, rep := sp[spanReplica]
		return s.traced && !s.failed && c && rt && h && rep
	})
	if len(mid) == 0 {
		return 0, fmt.Errorf("%s: no fully traced requests", r.label)
	}
	idx := make([]int64, len(mid))
	var client, router, hop, handler []float64
	for k, s := range mid {
		sp := ops[s.id]
		idx[k] = s.op
		client = append(client, us(sp[spanClient].dur()-sp[spanRouter].dur()))
		router = append(router, us(sp[spanRouter].dur()-sp[spanHop].dur()))
		hop = append(hop, us(sp[spanHop].dur()-sp[spanReplica].dur()))
		handler = append(handler, us(sp[spanReplica].dur()))
	}
	work, err := w.work(idx)
	if err != nil {
		return 0, err
	}
	workUS := make([]float64, len(work))
	for k, d := range work {
		workUS[k] = us(d)
	}
	m["client.self_us"] = mean(client)
	m["cluster.self_us"] = mean(router)
	m["cluster.hop_us"] = mean(hop)
	m["service.handler_us"] = mean(handler)
	m["service.work_us"] = mean(workUS)
	m["service.queue_wait_us"] = mean(handler) - mean(workUS)

	c := r.counters.cache
	if lookups := float64(c.Hits + c.DiskHits + c.Misses + c.Deduped); lookups > 0 {
		m["service.lru_hit_frac"] = float64(c.Hits) / lookups
		m["service.disk_hit_frac"] = float64(c.DiskHits) / lookups
		m["service.miss_frac"] = float64(c.Misses) / lookups
	}
	if served := float64(c.ModuleHits + c.ModuleDiskHits); served+float64(c.ModuleMisses) > 0 {
		m["service.module_hit_frac"] = served / (served + float64(c.ModuleMisses))
	}
	m["service.shed"] = float64(r.counters.shed)
	m["store.puts"] = float64(r.counters.puts)
	m["store.hits"] = float64(r.counters.storeHits)
	m["cluster.failovers"] = float64(r.counters.failovers)

	// Replays of the median requests through the layers' public calls.
	var reqs []service.Request
	var compiles []service.Request
	for _, i := range idx {
		path, req, err := w.request(i)
		if err != nil {
			return 0, err
		}
		reqs = append(reqs, req)
		if path == "/compile" {
			compiles = append(compiles, req)
		}
	}
	m["cluster.route_key_us"] = us(timeCalls(len(reqs), replayMin, func(i int) {
		service.RoutingKey(reqs[i]) //nolint:errcheck // replayed inputs were routed once already
	}))
	m["service.parse_us"] = us(timeCalls(len(reqs), replayMin, func(i int) {
		if surfcomm.LooksHierarchicalQASM(reqs[i].QASM) {
			surfcomm.ReadProgramQASM(strings.NewReader(reqs[i].QASM)) //nolint:errcheck // parsed once already
		} else {
			surfcomm.ReadQASM(strings.NewReader(reqs[i].QASM)) //nolint:errcheck // parsed once already
		}
	}))
	circs := make([]*surfcomm.Circuit, len(reqs))
	for i, req := range reqs {
		if circs[i], err = parseCircuit(req.QASM); err != nil {
			return 0, err
		}
	}
	m["resource.estimate_us"] = us(timeCalls(len(circs), replayMin, func(i int) {
		surfcomm.EstimateCircuit(circs[i]) //nolint:errcheck // these circuits compiled in the run
	}))
	if err := hitPathLayers(b, w.fleet(), compiles, m); err != nil {
		return 0, err
	}
	return (mean(client) + mean(router) + mean(hop) + mean(handler)) / 1000, nil
}

// parseCircuit parses either QASM dialect to a flat circuit (programs
// fully inlined, as Service.Estimate does).
func parseCircuit(text string) (*surfcomm.Circuit, error) {
	if !surfcomm.LooksHierarchicalQASM(text) {
		return surfcomm.ReadQASM(strings.NewReader(text))
	}
	p, err := surfcomm.ReadProgramQASM(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	return p.Flatten(surfcomm.InlineAll)
}

// hitPathLayers replays the compile requests as cache hits on the
// replicas that own them, then times encoding the replies and the
// store's Put and Get of their plans in a scratch store.
func hitPathLayers(b *bench, f *fleet, reqs []service.Request, m map[string]float64) error {
	if len(reqs) == 0 {
		return fmt.Errorf("no compile requests to replay")
	}
	ctx := context.Background()
	svcs := make([]*service.Service, len(reqs))
	resps := make([]service.CompileResponse, len(reqs))
	payloads := make([][]byte, len(reqs))
	for i, req := range reqs {
		rep, err := f.replicaFor(req)
		if err != nil {
			return err
		}
		svcs[i] = rep.svc
		res, err := rep.svc.Compile(ctx, req) // promotes a disk hit into the LRU
		if err != nil {
			return err
		}
		plan := service.Summarize(res.Plan)
		resps[i] = service.CompileResponse{Plan: &plan, Cached: true, Digest: res.Digest}
		// The store persists exactly the plan summary's JSON.
		if payloads[i], err = json.Marshal(plan); err != nil {
			return err
		}
	}
	m["service.hit_path_us"] = us(timeCalls(len(reqs), replayMin, func(i int) {
		svcs[i].Compile(ctx, reqs[i]) //nolint:errcheck // answered once above
	}))
	m["service.encode_us"] = us(timeCalls(len(resps), replayMin, func(i int) {
		json.Marshal(resps[i]) //nolint:errcheck // plain structs always marshal
	}))
	dir, err := os.MkdirTemp(b.workdir, "store-replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, nil)
	if err != nil {
		return err
	}
	var putErr, getErr error
	m["store.put_us"] = us(timeCalls(len(reqs), 0, func(i int) {
		if err := st.Put(resps[i].Digest, payloads[i]); err != nil {
			putErr = err
		}
	}))
	m["store.get_us"] = us(timeCalls(len(reqs), replayMin, func(i int) {
		if _, ok := st.Get(resps[i].Digest); !ok {
			getErr = fmt.Errorf("store replay lost %s", resps[i].Digest)
		}
	}))
	if putErr != nil {
		return putErr
	}
	return getErr
}

// streamLayers splits the median decoded window into the server's
// reported decode time and the framing gap (transport, NDJSON, client).
// It returns the decomposed total in ms.
func streamLayers(r *run, m map[string]float64) float64 {
	mid := middle(r.samples, bandWindow, func(s sample) bool { return s.traced && !s.failed })
	var server, frame []float64
	for _, s := range mid {
		server = append(server, s.attr)
		frame = append(frame, us(s.lat)-s.attr)
	}
	m["decoder.server_us"] = mean(server)
	m["decoder.frame_us"] = mean(frame)
	return (mean(server) + mean(frame)) / 1000
}

// mcLayers reports Monte Carlo time per trial by strategy, replays
// Solver.Decode on pre-sampled syndromes of every cell, and names the
// rest of a trial (sampling and syndrome extraction) as the sample gap.
// It returns the median cells' mean latency in ms.
func mcLayers(b *bench, r *run, m map[string]float64) (float64, error) {
	w := r.w.(*decodeMC)
	perStrategy := map[string][]float64{}
	var trial []float64
	for _, s := range r.samples {
		if !s.traced || s.failed {
			continue
		}
		c := w.cells[s.op%int64(len(w.cells))]
		t := us(s.lat) / mcTrials
		perStrategy[c.strategy] = append(perStrategy[c.strategy], t)
		trial = append(trial, t)
	}
	for _, st := range mcStrategies {
		m["decoder.mc_trial_us."+st] = mean(perStrategy[st])
	}
	decode, err := replayMCDecode(b.seed, w.cells)
	if err != nil {
		return 0, err
	}
	m["decoder.mc_decode_us"] = decode
	// Trials decode mcWorkers at a time but are sampled one at a time.
	m["decoder.mc_sample_us"] = mean(trial) - decode/mcWorkers
	var mid []float64
	for _, s := range middle(r.samples, bandCell, func(s sample) bool { return s.traced && !s.failed }) {
		mid = append(mid, ms(s.lat))
	}
	return mean(mid), nil
}

// replayMCDecode times Solver.Decode per trial on 64 pre-sampled
// syndromes of each cell and returns the mean over cells (µs).
func replayMCDecode(seed int64, cells []mcCell) (float64, error) {
	const trials = 64
	var perCell []float64
	for k, c := range cells {
		l, err := surfcomm.NewDecoderLattice(c.d)
		if err != nil {
			return 0, err
		}
		st, err := decoder.StrategyByName(c.strategy)
		if err != nil {
			return 0, err
		}
		solver := st.NewSolver(l)
		rng := rand.New(rand.NewSource(mix(seed, 6, int64(k))))
		syns := make([][]bool, trials)
		for t := range syns {
			errs := l.NewErrorPattern()
			for q := range errs {
				errs[q] = rng.Float64() < c.p
			}
			syns[t] = l.Syndrome(errs)
		}
		corr := l.NewErrorPattern()
		var decErr error
		perCell = append(perCell, us(timeCalls(trials, 5*time.Millisecond, func(t int) {
			if err := solver.Decode(corr, syns[t]); err != nil {
				decErr = err
			}
		})))
		if decErr != nil {
			return 0, decErr
		}
	}
	return mean(perCell), nil
}

// engineLayers replays the serve-miss sample ops (one circuit per
// family and backend, at nine sizes) through each compile engine's
// public entry.
func engineLayers(seed int64, m map[string]float64) error {
	ctx := context.Background()
	tc, err := surfcomm.NewToolchain()
	if err != nil {
		return err
	}
	var braidMS, surgeryMS, braids, simdMS, eprMS, placeMS, bisectMS []float64
	timed := func(dst *[]float64, fn func() error) error {
		start := time.Now()
		err := fn()
		*dst = append(*dst, ms(time.Since(start)))
		return err
	}
	for k := int64(0); k < 9; k++ {
		fam, _, size, tseed := missShape(seed, k*missSampleStride)
		c, err := flatCircuit(families[fam], missMinQ+size)
		if err != nil {
			return err
		}
		withSeed := func(t *surfcomm.Target) { t.Seed = tseed }
		var plan surfcomm.Plan
		if err := timed(&braidMS, func() (err error) {
			plan, err = tc.Compile(ctx, surfcomm.BraidBackend{}, c, withSeed)
			return err
		}); err != nil {
			return err
		}
		braids = append(braids, float64(plan.CommOps))
		if err := timed(&surgeryMS, func() error {
			_, err := tc.Compile(ctx, surfcomm.SurgeryBackend{}, c, withSeed)
			return err
		}); err != nil {
			return err
		}
		var sched *simd.Schedule
		if err := timed(&simdMS, func() (err error) {
			sched, err = simd.RunContext(ctx, c, simd.ConfigFor(c.NumQubits, tseed))
			return err
		}); err != nil {
			return err
		}
		tcfg := teleport.Config{Distance: 9}
		if err := timed(&eprMS, func() error {
			_, err := teleport.DistributeContext(ctx, sched, teleport.JITWindow(sched, tcfg), tcfg)
			return err
		}); err != nil {
			return err
		}
		g := braid.InteractionGraph(c)
		if err := timed(&placeMS, func() error {
			_, err := layout.Optimized(g, tseed)
			return err
		}); err != nil {
			return err
		}
		timed(&bisectMS, func() error { //nolint:errcheck // Bisect cannot fail
			partition.Bisect(g, partition.Options{Seed: tseed})
			return nil
		})
	}
	m["braid.compile_ms"] = mean(braidMS)
	m["braid.surgery_ms"] = mean(surgeryMS)
	m["braid.braids_per_op"] = mean(braids)
	m["simd.schedule_ms"] = mean(simdMS)
	m["teleport.distribute_ms"] = mean(eprMS)
	m["layout.place_ms"] = mean(placeMS)
	m["partition.bisect_ms"] = mean(bisectMS)
	return nil
}

// modularEdits is how many modular-edit inputs the modcompile replays
// rerun: one edit of every stage.
const modularEdits = modularStages

// modularLayers replays the first modular-edit inputs through
// Toolchain.CompileIncremental with a warm module cache, and through
// modcompile.Run with a fresh stitch memo to measure its reuse.
func modularLayers(seed int64, m map[string]float64) error {
	ctx := context.Background()
	w := &modularEdit{}
	if err := w.inputs(seed); err != nil {
		return err
	}
	progs := make([]*surfcomm.Program, modularEdits)
	for i := range progs {
		p, err := surfcomm.ReadProgramQASM(strings.NewReader(w.programText(int64(i))))
		if err != nil {
			return err
		}
		progs[i] = p
	}
	tc, err := surfcomm.NewToolchain(surfcomm.WithModular())
	if err != nil {
		return err
	}
	if _, err := tc.CompileIncremental(ctx, surfcomm.BraidBackend{}, w.base); err != nil {
		return err
	}
	compiled := 0
	start := time.Now()
	for _, p := range progs {
		plan, err := tc.CompileIncremental(ctx, surfcomm.BraidBackend{}, p)
		if err != nil {
			return err
		}
		if plan.Modular != nil {
			compiled += len(plan.Modular.Compiled)
		}
	}
	m["modcompile.edit_ms"] = ms(time.Since(start)) / modularEdits
	m["modcompile.modules_compiled_per_op"] = float64(compiled) / modularEdits

	memo := modcompile.NewStitchMemo()
	cfg := modcompile.Config{
		Workers:              1,
		TargetFingerprint:    "surfbench",
		Distance:             9,
		ChannelQubitsPerLink: float64(surfcomm.DoubleDefectTileQubits(9)),
		Seed:                 1,
		Cache:                moduleMap{},
		Stitch:               memo,
		Compile: func(ctx context.Context, c *surfcomm.Circuit) (modcompile.ModulePlan, error) {
			plan, err := surfcomm.BraidBackend{}.Compile(ctx, c, &surfcomm.Target{})
			return modcompile.ModulePlan{Cycles: plan.Cycles, PhysicalQubits: plan.PhysicalQubits, CommOps: plan.CommOps}, err
		},
	}
	for _, p := range append([]*surfcomm.Program{w.base}, progs...) {
		if _, err := modcompile.Run(ctx, p, cfg); err != nil {
			return err
		}
	}
	m["modcompile.stitch_memo_hit_frac"] = float64(memo.Hits()) / float64(len(progs)+1)
	return nil
}

// moduleMap is an in-process module-plan cache for the modcompile.Run
// replay, which runs with one worker, from one goroutine.
type moduleMap map[string]modcompile.ModulePlan

func (c moduleMap) GetModule(digest string) (modcompile.ModulePlan, bool) {
	p, ok := c[digest]
	return p, ok
}

func (c moduleMap) PutModule(p modcompile.ModulePlan) { c[p.Digest] = p }

// windowSessions is how many decode-stream sessions the window replay
// reruns under each strategy.
const windowSessions = 3

// windowLayers replays the first decode-stream sessions' rounds through
// StreamDecoder.PushRound under each strategy.
func windowLayers(seed int64, m map[string]float64) error {
	l, err := surfcomm.NewDecoderLattice(streamDistance)
	if err != nil {
		return err
	}
	var rounds [][][]bool
	for j := 0; j < windowSessions; j++ {
		s, err := drawSession(l, seed, j)
		if err != nil {
			return err
		}
		rs, err := s.rounds()
		if err != nil {
			return err
		}
		rounds = append(rounds, rs[:streamWindow*streamWindows])
	}
	var workops, windows uint64
	for _, st := range mcStrategies {
		// Decoders are built outside the timed region: a session pays
		// for its solver once, not per window.
		var pushed time.Duration
		passes := 0
		for ; pushed < 50*time.Millisecond; passes++ {
			for _, rs := range rounds {
				wd, err := surfcomm.NewStreamDecoder(streamDistance, streamWindow, st)
				if err != nil {
					return err
				}
				start := time.Now()
				for _, syn := range rs {
					if _, err := wd.PushRound(syn); err != nil {
						return err
					}
				}
				pushed += time.Since(start)
				if passes == 0 {
					workops += wd.WorkOps()
					windows += uint64(wd.Windows())
				}
			}
		}
		m["decoder.window_us."+st] = us(pushed) / float64(passes*len(rounds)*streamWindows)
	}
	m["decoder.workops_per_window"] = float64(workops) / float64(windows)
	return nil
}
