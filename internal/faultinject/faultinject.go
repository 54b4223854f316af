// Package faultinject is the deterministic chaos layer behind the
// serving stack's robustness tests and the daemon's -chaos flag. An
// Injector holds a seeded RNG and a probability per named injection
// point; production code asks Fire(point) at each site and a nil
// injector answers false everywhere, so the instrumented paths cost a
// nil check when chaos is off. The points cover the failure modes the
// ISSUE's acceptance criteria exercise: slow compiles (queue pressure),
// failed compiles (retry paths), failed disk writes (write-behind must
// stay non-fatal), and torn writes (crash-consistency of the plan
// store).
//
// Determinism: all draws come from one seeded source, so a serial test
// replays the exact fault sequence for a given seed. Concurrent sites
// interleave their draws nondeterministically — tests that need exact
// schedules use probabilities 0 or 1.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Point names one injection site.
type Point string

const (
	// CompileError fails a compile with ErrInjected before the backend
	// runs (the serving layer maps it to a retryable 503).
	CompileError Point = "compile-error"
	// StoreWriteError fails a plan-store Put with ErrInjected; the
	// write-behind layer must log and carry on.
	StoreWriteError Point = "store-write-error"
	// TornWrite truncates a plan-store Put mid-payload while still
	// reporting success — the on-disk entry is corrupt and must be
	// caught by checksum verification, never served.
	TornWrite Point = "torn-write"
	// DecodeError sheds a /decode streaming session at admission with
	// ErrInjected (503) before it occupies a worker slot.
	DecodeError Point = "decode-error"
)

// Points lists every probability-gated injection site.
func Points() []Point { return []Point{CompileError, StoreWriteError, TornWrite, DecodeError} }

// ErrInjected is the root of every injected failure; layers wrap it
// with %w so tests (and the HTTP status mapper) can classify a fault as
// deliberate chaos rather than a real defect.
var ErrInjected = errors.New("faultinject: injected fault")

// Injector is a seeded fault source, safe for concurrent use. The zero
// value is not usable; construct with New or Parse. A nil *Injector is
// valid everywhere and injects nothing.
type Injector struct {
	mu      sync.Mutex
	rng     *rand.Rand
	probs   map[Point]float64
	latency time.Duration
	fired   map[Point]uint64
	delays  uint64
}

// New returns an injector drawing from a source seeded with seed; no
// point fires until Set enables it.
func New(seed int64) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		probs: make(map[Point]float64),
		fired: make(map[Point]uint64),
	}
}

// Set enables a point at the given firing probability in [0,1]; NaN is
// outside.
func (in *Injector) Set(p Point, prob float64) error {
	if !validPoint(p) {
		return fmt.Errorf("faultinject: unknown point %q (valid: %s)", p, pointList())
	}
	if !(prob >= 0 && prob <= 1) {
		return fmt.Errorf("faultinject: probability %g for %q outside [0,1]", prob, p)
	}
	in.mu.Lock()
	in.probs[p] = prob
	in.mu.Unlock()
	return nil
}

// SetLatency makes every compile sleep d before running (CompileDelay
// reports it); zero disables.
func (in *Injector) SetLatency(d time.Duration) {
	in.mu.Lock()
	in.latency = d
	in.mu.Unlock()
}

// Fire draws once for the point and reports whether the fault should
// trigger. Nil-safe: a nil injector never fires.
func (in *Injector) Fire(p Point) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	prob := in.probs[p]
	if prob <= 0 {
		return false
	}
	// prob == 1 must fire without consuming a draw only if we wanted
	// draw-sequence stability across configs; we prefer one draw per
	// call so the sequence depends only on call order.
	if in.rng.Float64() >= prob {
		return false
	}
	in.fired[p]++
	return true
}

// CompileDelay returns the injected compile latency (zero when
// disabled). Nil-safe.
func (in *Injector) CompileDelay() time.Duration {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.latency > 0 {
		in.delays++
	}
	return in.latency
}

// Counts snapshots how often each fault actually fired (the
// "compile-latency" key counts injected delays). Nil-safe: nil map.
func (in *Injector) Counts() map[string]uint64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]uint64, len(in.fired)+1)
	for p, n := range in.fired {
		out[string(p)] = n
	}
	if in.delays > 0 {
		out["compile-latency"] = in.delays
	}
	return out
}

// Parse builds an injector from a -chaos flag spec: comma-separated
// key=value entries where keys are the Points (value: probability),
// "compile-latency" (value: a Go duration), and "seed" (value: int64,
// default 1). Each value must parse whole. Example:
//
//	compile-error=0.3,torn-write=0.2,compile-latency=50ms,seed=7
func Parse(spec string) (*Injector, error) {
	type entry struct {
		key, val string
	}
	var (
		entries []entry
		seed    int64 = 1
	)
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: spec entry %q is not key=value", field)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if key == "seed" {
			var err error
			if seed, err = strconv.ParseInt(val, 10, 64); err != nil {
				return nil, fmt.Errorf("faultinject: bad seed %q", val)
			}
			continue
		}
		entries = append(entries, entry{key, val})
	}
	in := New(seed)
	for _, e := range entries {
		if e.key == "compile-latency" {
			d, err := time.ParseDuration(e.val)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("faultinject: bad compile-latency %q (want a Go duration)", e.val)
			}
			in.SetLatency(d)
			continue
		}
		prob, err := strconv.ParseFloat(e.val, 64)
		if err != nil {
			return nil, fmt.Errorf("faultinject: bad probability %q for %q", e.val, e.key)
		}
		if err := in.Set(Point(e.key), prob); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// String renders the enabled configuration (sorted, stable) for logs.
func (in *Injector) String() string {
	if in == nil {
		return "off"
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var parts []string
	for p, prob := range in.probs {
		if prob > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", p, prob))
		}
	}
	sort.Strings(parts)
	if in.latency > 0 {
		parts = append(parts, fmt.Sprintf("compile-latency=%s", in.latency))
	}
	if len(parts) == 0 {
		return "enabled (no points armed)"
	}
	return strings.Join(parts, ",")
}

func validPoint(p Point) bool {
	for _, q := range Points() {
		if p == q {
			return true
		}
	}
	return false
}

func pointList() string {
	names := make([]string, 0, 4)
	for _, p := range Points() {
		names = append(names, string(p))
	}
	names = append(names, "compile-latency")
	return strings.Join(names, ", ")
}
