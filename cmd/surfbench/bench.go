package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// maxClients bounds the closed-loop client goroutines of any workload.
// Every caller of the fleet (CI jobs, sweep scripts, the client package)
// waits for its answer before sending the next request, so load is a
// closed loop of two clients on this two-core benchmark.
const maxClients = 2

// workload is one seeded traffic mix the benchmark drives.
type workload interface {
	// setup generates the workload's inputs from the seed and starts
	// and primes whatever it drives. It is the work setup_s times.
	setup(b *bench) error
	// clients is the number of closed-loop client goroutines.
	clients() int
	// cycle is the number of consecutive op indices that form one pass
	// over the workload's inputs; a phase ends only on a pass boundary.
	cycle() int
	// do runs op i from client c and returns one sample per timed unit
	// (one for most workloads, one per decoded window for decode-stream).
	do(ctx context.Context, b *bench, c int, i int64, traced bool) []sample
	// close stops everything setup started.
	close()
}

// newWorkload returns a fresh instance of the named workload.
func newWorkload(name string) (workload, error) {
	switch name {
	case "serve-hot":
		return &serveHot{}, nil
	case "serve-miss":
		return &serveMiss{}, nil
	case "modular-edit":
		return &modularEdit{}, nil
	case "decode-stream":
		return &decodeStream{}, nil
	case "decode-mc":
		return &decodeMC{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %v)", name, workloadNames)
}

var workloadNames = []string{"serve-hot", "serve-miss", "modular-edit", "decode-stream", "decode-mc"}

// sample is one timed unit of work.
type sample struct {
	op     int64 // op index: identifies the inputs
	lat    time.Duration
	failed bool // non-200, transport error, in-stream error or timeout
	traced bool
	id     string  // trace id of a traced sample
	attr   float64 // a server-reported number (a window's decode_us)
}

// bench is the state one benchmark process shares across workloads.
type bench struct {
	seed    int64
	workdir string  // scratch root for stores, inside the checkout
	tr      *tracer // non-nil in traced runs
	gold    *golden
	chk     checker
}

// traceID names traced op i of the current phase's workload.
func (b *bench) traceID(traced bool, i int64) string {
	if !traced {
		return ""
	}
	return strconv.FormatInt(i, 10)
}

// span records a client-side span of a traced op.
func (b *bench) span(id, name string, start time.Time, end time.Time, attr float64) {
	if id == "" {
		return
	}
	b.tr.add(id, name, start.Sub(b.tr.epoch), end.Sub(b.tr.epoch), attr)
}

// checker collects correctness mismatches: any one fails the run.
type checker struct {
	mu   sync.Mutex
	n    int
	msgs []string
}

func (c *checker) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if len(c.msgs) < 10 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

func (c *checker) mismatches() (int, []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n, append([]string(nil), c.msgs...)
}

// traceMode selects which ops of a phase carry the trace header.
type traceMode int

const (
	traceOff       traceMode = iota
	traceAlternate           // every other cycle: traced and untraced ops share the run
	traceAll
)

// run is one measured phase of one workload instance.
type run struct {
	label    string // workload name; probes are "probe:<name>"
	w        workload
	samples  []sample
	elapsed  time.Duration
	cpu      time.Duration
	spans    []span
	counters fleetCounters // deltas over the phase (fleet workloads)
}

// phase runs the closed loop for d (ending on a cycle boundary) and
// returns its samples and wall time. next carries op indices across
// phases, so warm-up and measurement never repeat an input.
func phase(b *bench, w workload, next *atomic.Int64, d time.Duration, mode traceMode) ([]sample, time.Duration) {
	unit := int64(w.cycle())
	n := w.clients()
	per := make([][]sample, n)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every client runs at least one op, so a zero-length phase
			// still makes one whole pass.
			for len(per[c]) == 0 || !(time.Now().After(deadline) && next.Load()%unit == 0) {
				i := next.Add(1) - 1
				traced := mode == traceAll || (mode == traceAlternate && (i/unit)%2 == 1)
				per[c] = append(per[c], w.do(context.Background(), b, c, i, traced)...)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out, elapsed
}

// measure runs a warm-up and a measured phase on a set-up workload.
func measure(b *bench, label string, w workload, warmup, d time.Duration, mode traceMode) (*run, error) {
	var next atomic.Int64
	phase(b, w, &next, warmup, mode)
	if b.tr != nil {
		b.tr.drain()
	}
	f, hasFleet := fleetOf(w)
	var before fleetCounters
	if hasFleet {
		var err error
		if before, err = f.counters(); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	cpu0 := cpuTime()
	r := &run{label: label, w: w}
	r.samples, r.elapsed = phase(b, w, &next, d, mode)
	r.cpu = cpuTime() - cpu0
	if hasFleet {
		after, err := f.counters()
		if err != nil {
			return nil, err
		}
		r.counters = after.minus(before)
	}
	if b.tr != nil {
		r.spans = b.tr.drain()
	}
	return r, nil
}

// fleetOf returns the fleet a workload drives, if any.
func fleetOf(w workload) (*fleet, bool) {
	if fw, ok := w.(interface{ fleet() *fleet }); ok && fw.fleet() != nil {
		return fw.fleet(), true
	}
	return nil, false
}

// latencies returns the sorted latencies (ms) of the successful samples
// that match keep.
func latencies(samples []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if !s.failed && keep(s) {
			out = append(out, ms(s.lat))
		}
	}
	sort.Float64s(out)
	return out
}

// parallel runs fn over 0..n-1 on k goroutines and returns the first
// error.
func parallel(k, n int, fn func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, k)
	var wg sync.WaitGroup
	for g := 0; g < k; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || errs[g] != nil {
					return
				}
				errs[g] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
