// Package service is the compile-serving layer over the surfcomm
// toolchain: a digest-keyed, LRU-bounded plan cache with singleflight
// deduplication, a batched compile API running on the sweep worker
// pool, and the HTTP handler cmd/surfcommd mounts. The serving access
// pattern is the paper's toolflow inverted — many requests over few
// distinct (circuit, target) pairs (the §7 workload suite compiled at
// varying targets) — which is exactly where caching identical compiles
// pays off. Cached plans are bit-identical to fresh compiles because
// every pipeline stage derives its randomness from explicit seeds; the
// digest-parity tests pin that property.
package service

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"surfcomm"
	"surfcomm/internal/circuit"
	"surfcomm/internal/faultinject"
	"surfcomm/internal/scerr"
	"surfcomm/internal/store"
	"surfcomm/internal/sweep"
)

// DefaultMaxEntries is the LRU bound a zero Config selects.
const DefaultMaxEntries = 256

// Config sizes a Service.
type Config struct {
	// MaxEntries bounds the plan cache; 0 selects DefaultMaxEntries,
	// negative disables caching entirely.
	MaxEntries int
	// Workers bounds the batch compile pool; 0 selects the toolchain's
	// WithWorkers setting (which itself defaults to GOMAXPROCS).
	Workers int
	// BaseContext is the context cache-shared compiles run under (nil
	// selects context.Background()). Cached compiles serve every
	// request with the same digest, so they must outlive any one
	// client: a request abandoning its wait never aborts the compile
	// others are latched onto. Daemons pass their process context here
	// so graceful shutdown still cancels in-flight compiles through
	// the ErrCanceled plumbing.
	BaseContext context.Context
	// QueueDepth bounds the compile queue behind the worker slots:
	// arrivals past it (or whose deadline the queue provably cannot
	// meet) are shed immediately with ErrOverloaded instead of waiting
	// to fail. 0 selects DefaultQueueDepth; negative allows no queueing
	// at all (shed whenever every slot is busy).
	QueueDepth int
	// RatePerSec enables per-client token-bucket rate limiting at that
	// refill rate (0 disables); Burst is the bucket size (0 selects
	// 2×RatePerSec, minimum 1). Clients are keyed by ClientKey.
	RatePerSec float64
	Burst      int
	// TrustForwardedFor keys per-client rate limiting on the last
	// X-Forwarded-For hop instead of the connection's remote address.
	// Only enable it when every connection reaches this daemon through a
	// trusted proxy that overwrites the header (surfrouter does): behind
	// a router every connection shares the router's address, so without
	// this one router consumes the whole fleet's token budget — and with
	// it an untrusted client could spoof arbitrary identities.
	TrustForwardedFor bool
	// Store is the crash-safe disk plan store layered under the LRU:
	// read-through on misses, write-behind on fresh compiles, so a
	// restarted daemon (or a replica sharing the directory) serves warm
	// hits. Nil disables persistence. Persistence requires caching
	// (MaxEntries >= 0).
	Store *store.Store
	// Injector arms the chaos layer (compile latency/error injection);
	// nil injects nothing. The store's write faults are armed on the
	// store itself at Open.
	Injector *faultinject.Injector
}

// Service serves compile requests from a shared toolchain through the
// plan cache. It is safe for concurrent use.
type Service struct {
	tc      *surfcomm.Toolchain
	cache   *planCache
	workers int
	base    context.Context
	// adm bounds compiles service-wide (worker slots + a bounded,
	// deadline-priced queue): every batch runs its own worker pool, so
	// without a shared bound N concurrent batches would run N×workers
	// compiles at once. Cache hits bypass it.
	adm            *admission
	limiter        *rateLimiter
	trustForwarded bool
	inj            *faultinject.Injector
	dec            decodeCounters
	draining       atomic.Bool
	// Module-cache layer counters (hierarchical compiles): LRU hits,
	// disk read-throughs, and fresh module compiles.
	modHits, modDiskHits, modMisses atomic.Uint64

	modelsMu     sync.Mutex
	models       []surfcomm.AppModel
	modelsFlight *modelsFlight
}

// modelsFlight is one in-progress reference characterization that
// concurrent /models requests latch onto.
type modelsFlight struct {
	done   chan struct{}
	models []surfcomm.AppModel
	err    error
}

// New returns a Service over the toolchain; a nil toolchain selects
// the default (paper-baseline) toolchain.
func New(tc *surfcomm.Toolchain, cfg Config) *Service {
	if tc == nil {
		tc, _ = surfcomm.NewToolchain() // zero options cannot fail
	}
	max := cfg.MaxEntries
	switch {
	case max == 0:
		max = DefaultMaxEntries
	case max < 0:
		max = 0
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = tc.Workers()
	}
	if workers == 0 {
		// Resolve the GOMAXPROCS sentinel so /healthz reports the real
		// pool size instead of 0.
		workers = runtime.GOMAXPROCS(0)
	}
	base := cfg.BaseContext
	if base == nil {
		base = context.Background()
	}
	queue := cfg.QueueDepth
	switch {
	case queue == 0:
		queue = DefaultQueueDepth
	case queue < 0:
		queue = 0
	}
	cache := newPlanCache(max)
	if max > 0 {
		cache.disk = newDiskLayer(cfg.Store)
	}
	return &Service{
		tc:             tc,
		cache:          cache,
		workers:        workers,
		base:           base,
		adm:            newAdmission(workers, queue),
		limiter:        newRateLimiter(cfg.RatePerSec, cfg.Burst),
		trustForwarded: cfg.TrustForwardedFor,
		inj:            cfg.Injector,
	}
}

// DeviceSpec selects a device-topology preset for a request — the
// JSON-friendly form of the surfcomm.Device constructors.
type DeviceSpec struct {
	// Preset is "perfect", "random-yield", "clustered", or "heavy-hex";
	// empty means perfect.
	Preset string `json:"preset"`
	// Frac is the defect fraction (random-yield, clustered).
	Frac float64 `json:"frac,omitempty"`
	// Seed is the realization seed (random-yield, clustered, heavy-hex).
	Seed int64 `json:"seed,omitempty"`
}

// device materializes the spec; unknown presets, out-of-range defect
// fractions, and parameters on the perfect preset all fail with errors
// matching scerr.ErrBadConfig — a forgotten "preset" field must not
// silently measure a perfect grid.
func (ds *DeviceSpec) device() (*surfcomm.Device, error) {
	if ds == nil {
		return nil, nil
	}
	switch ds.Preset {
	case "", "perfect":
		if ds.Frac != 0 || ds.Seed != 0 {
			return nil, scerr.BadConfig("service: device preset %q takes no frac/seed (did you mean random-yield or clustered?)",
				ds.Preset)
		}
		return surfcomm.PerfectDevice(), nil
	case "random-yield", "clustered":
		if ds.Frac < 0 || ds.Frac >= 1 {
			return nil, scerr.BadConfig("service: device frac %g outside [0,1)", ds.Frac)
		}
		if ds.Frac == 0 {
			// Zero defects realizes the perfect grid at any seed;
			// normalize so the alias shares the perfect cache line.
			return surfcomm.PerfectDevice(), nil
		}
		if ds.Preset == "random-yield" {
			return surfcomm.RandomYieldDevice(ds.Frac, ds.Seed), nil
		}
		return surfcomm.ClusteredDefectsDevice(ds.Frac, ds.Seed), nil
	case "heavy-hex":
		if ds.Frac != 0 {
			return nil, scerr.BadConfig("service: device preset %q takes no frac (heavy-hex drops couplers by pattern, not yield)",
				ds.Preset)
		}
		return surfcomm.HeavyHexDevice(ds.Seed), nil
	}
	return nil, scerr.BadConfig("service: unknown device preset %q (valid: perfect, random-yield, clustered, heavy-hex)", ds.Preset)
}

// Request is one compile request: the circuit as QASM text plus the
// target knobs that differ from the service toolchain's defaults.
// Omitted fields keep the toolchain's settings, so a request carrying
// only QASM compiles at the server's configured target.
type Request struct {
	// QASM is the circuit, in either the flat QASM dialect or the
	// module-extended hierarchical dialect (entry/module/call
	// directives). Hierarchical programs compile through the
	// incremental module pipeline: each module is cached independently
	// under its content digest, so recompiling an edited program reuses
	// every unchanged module.
	QASM string `json:"qasm"`
	// Backend names the compiling backend ("braid", "planar",
	// "surgery"); empty selects "braid".
	Backend string `json:"backend,omitempty"`
	// Distance overrides the code distance when positive.
	Distance int `json:"distance,omitempty"`
	// Policy overrides the braid policy (0–6) when non-nil.
	Policy *int `json:"policy,omitempty"`
	// Seed overrides the layout/partition seed when non-nil.
	Seed *int64 `json:"seed,omitempty"`
	// Window overrides the planar EPR look-ahead window when non-zero
	// (-1 selects the just-in-time heuristic explicitly).
	Window int64 `json:"window,omitempty"`
	// PhysicalError overrides the technology's physical error rate
	// when positive (the baseline superconducting technology at that
	// rate).
	PhysicalError float64 `json:"physical_error,omitempty"`
	// Device selects the device topology the machine is realized on.
	Device *DeviceSpec `json:"device,omitempty"`
	// Calibration is an inline calibration snapshot (the versioned JSON
	// schema device.ParseCalibration accepts) realized onto the request's
	// device. It overrides the service's startup calibration for this
	// request; malformed snapshots answer 400. The snapshot's content
	// digest joins the compile digest (through the device's record
	// string), so requests under different calibrations never share a
	// cache line.
	Calibration json.RawMessage `json:"calibration,omitempty"`
	// RecordSchedule captures the static schedule in the cached plan so
	// it can be replay-validated (braid-family backends).
	RecordSchedule bool `json:"record_schedule,omitempty"`
}

// parsedQASM is a request's circuit after the front end: exactly one of
// circuit (flat dialect) and program (hierarchical dialect) is non-nil.
type parsedQASM struct {
	circuit *surfcomm.Circuit
	program *surfcomm.Program
}

// parseQASM builds the circuit or program a request's text describes.
// It runs on a cache miss and for /estimate; a cache hit never builds
// one. Every failure matches scerr.ErrBadConfig, so callers answer 400
// without further wrapping.
func parseQASM(text string) (parsedQASM, error) {
	if strings.TrimSpace(text) == "" {
		return parsedQASM{}, errEmptyQASM
	}
	var (
		src parsedQASM
		err error
	)
	src.circuit, src.program, err = circuit.Parse(text)
	if err != nil {
		return parsedQASM{}, scerr.BadConfig("service: qasm: %v", err)
	}
	return src, nil
}

var errEmptyQASM = scerr.BadConfig("service: empty qasm")

// appendCanonicalQASM is the service's one QASM front end on the hit
// path: it validates text as parseQASM would and appends its canonical
// bytes to dst, so spacing, comments and module order in the submitted
// text split neither cache lines nor router shards. The two dialects
// canonicalize into disjoint byte spaces (flat text opens with a
// comment/qubits line, hierarchical with an entry directive), so they
// can never collide on a digest.
func appendCanonicalQASM(dst []byte, text string) ([]byte, error) {
	if strings.TrimSpace(text) == "" {
		return dst, errEmptyQASM
	}
	out, err := circuit.AppendCanonical(dst, text)
	if err != nil {
		return dst, scerr.BadConfig("service: qasm: %v", err)
	}
	return out, nil
}

// canonBufs recycles the buffers RoutingKey and resolve hash canonical
// QASM in.
var canonBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledCanon is the largest buffer canonBufs keeps: a rare huge
// request's buffer goes back to the GC rather than pinning its size
// in the pool.
const maxPooledCanon = 1 << 20

func putCanonBuf(b *[]byte) {
	if cap(*b) > maxPooledCanon {
		return
	}
	*b = (*b)[:0]
	canonBufs.Put(b)
}

// compileKey is one resolved request: everything the compile needs,
// plus the digest identifying it in the cache. The circuit is built
// from qasm only when the digest misses every cache tier.
type compileKey struct {
	qasm    string
	backend surfcomm.Backend
	target  surfcomm.Target
	digest  string
}

// resolve validates a request into a compileKey without building its
// circuit. The digest covers the resolved target (not the raw
// request), the backend name, and the canonical bytes of the circuit,
// so two textually different requests meaning the same compile share a
// cache line.
func (s *Service) resolve(req Request) (compileKey, error) {
	name := cmp.Or(req.Backend, "braid")
	backend, err := surfcomm.BackendByName(name)
	if err != nil {
		return compileKey{}, err
	}
	buf := canonBufs.Get().(*[]byte)
	defer putCanonBuf(buf)
	canon, err := appendCanonicalQASM((*buf)[:0], req.QASM)
	*buf = canon
	if err != nil {
		return compileKey{}, err
	}

	if req.Distance < 0 {
		return compileKey{}, scerr.BadConfig("service: negative distance %d", req.Distance)
	}
	if req.PhysicalError < 0 {
		return compileKey{}, scerr.BadConfig("service: negative physical error rate %g", req.PhysicalError)
	}
	target := s.tc.Target()
	if req.Distance > 0 {
		target.Distance = req.Distance
	}
	if req.Policy != nil {
		target.Policy = surfcomm.BraidPolicy(*req.Policy)
	}
	if req.Seed != nil {
		target.Seed = *req.Seed
	}
	if req.Window != 0 {
		target.Window = req.Window
	}
	if req.PhysicalError > 0 {
		target.Technology = surfcomm.Superconducting(req.PhysicalError)
	}
	target.RecordSchedule = req.RecordSchedule
	if req.Device != nil {
		dev, err := req.Device.device()
		if err != nil {
			return compileKey{}, err
		}
		target.Device = dev
		// A request-selected device starts uncalibrated; the service's
		// startup calibration (already folded into the default target's
		// device) does not silently follow it.
	}
	if len(req.Calibration) > 0 {
		cal, err := surfcomm.ParseCalibration(req.Calibration)
		if err != nil {
			return compileKey{}, err
		}
		target.Device = target.Device.WithCalibration(cal)
	}
	return compileKey{
		qasm:    req.QASM,
		backend: backend,
		target:  target,
		digest:  digest(name, canon, target),
	}, nil
}

// digest fingerprints a resolved compile: backend name, every
// plan-affecting target field (technology and device included), and
// the canonical circuit text. SHA-256 keeps accidental collisions out
// of the picture at any cache size.
func digest(backend string, canonicalQASM []byte, t surfcomm.Target) string {
	h := sha256.New()
	t.WriteFingerprint(h, backend)
	h.Write(canonicalQASM)
	return hex.EncodeToString(h.Sum(nil))
}

// RoutingKey fingerprints a request for consistent-hash routing across
// a replica fleet: requests that would resolve to the same compile on
// any replica share a key, so each shard's LRU and disk store stay hot
// for their slice of the keyspace. It hashes the replica's own
// canonical bytes (whitespace, comments and module order don't split
// shards) but the raw request knobs rather than a resolved target —
// the router doesn't know each replica's defaults, and it doesn't need
// to: the key only has to be consistent, not equal to the replica's
// cache digest.
// Malformed requests fail with errors matching scerr.ErrBadConfig so a
// router can answer 400 without spending a replica's time.
func RoutingKey(req Request) (string, error) {
	buf := canonBufs.Get().(*[]byte)
	defer putCanonBuf(buf)
	b := fmt.Appendf((*buf)[:0], "route/1 backend=%s d=%d window=%d pe=%g record=%t\n",
		cmp.Or(req.Backend, "braid"), req.Distance, req.Window, req.PhysicalError, req.RecordSchedule)
	if req.Policy != nil {
		b = fmt.Appendf(b, "policy=%d\n", *req.Policy)
	}
	if req.Seed != nil {
		b = fmt.Appendf(b, "seed=%d\n", *req.Seed)
	}
	if req.Device != nil {
		b = fmt.Appendf(b, "device=%s/%g/%d\n", req.Device.Preset, req.Device.Frac, req.Device.Seed)
	}
	if len(req.Calibration) > 0 {
		// Raw snapshot bytes, not the parsed digest: the router must not
		// spend parse time, and the key only has to be consistent.
		b = fmt.Appendf(b, "cal=%x\n", sha256.Sum256(req.Calibration))
	}
	b, err := appendCanonicalQASM(b, req.QASM)
	*buf = b
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Result is one served compile: the plan, whether it came from the
// cache (or a deduped in-flight compile), and the digest that keyed
// it. Batch slots carry per-request failures in Err.
//
// The Plan's artifact pointers (Braid, SIMD, EPR and their slices) are
// shared with the cache entry and with every other request served from
// the same digest — treat them as read-only; mutating them would
// corrupt what later hits are served.
type Result struct {
	Plan   surfcomm.Plan
	Cached bool
	Digest string
	Err    error
}

// Compile serves one request through the cache: a digest hit returns
// the cached plan, a concurrent identical compile is awaited, a miss
// reads through to the disk store, and only then does a compile run —
// behind admission control (bounded queue, deadline-aware shedding
// with ErrOverloaded, request contexts that expire in the queue
// answered without compiling).
//
// Cache-shared compiles run under the service's base context, not the
// request's: the leader's client disconnecting must not cancel the
// compile every deduped waiter is latched onto (and whose result the
// cache keeps). A request deadline (the HTTP layer's
// X-Request-Deadline, or any context deadline) is honored end-to-end:
// it is re-derived onto the base context, so the compile itself aborts
// with ErrCanceled when the deadline passes. The request context still
// governs the caller's wait, and a pre-canceled request is rejected
// before any work starts; with caching disabled a compile serves only
// its own request and stays on the request context.
func (s *Service) Compile(ctx context.Context, req Request) (Result, error) {
	return s.compile(ctx, req, nil)
}

// compile is Compile with an optional stage-event emitter (nil for the
// plain path). Events fire on the caller's goroutine, in order: the
// emitter only ever observes this request's own progress — a deduped
// request reports "cached", not the leader's compile stages.
func (s *Service) compile(ctx context.Context, req Request, emit func(surfcomm.Event)) (Result, error) {
	if ctx.Err() != nil {
		err := scerr.Canceled(ctx)
		return Result{Err: err}, err
	}
	key, err := s.resolve(req)
	if err != nil {
		return Result{Err: err}, err
	}
	if emit != nil {
		emit(surfcomm.Event{Stage: StageResolved, Backend: key.backend.Name(), Digest: key.digest})
	}
	// Recorded-schedule plans carry artifacts the disk store does not
	// persist; keep them out of the disk layer so a disk hit never
	// serves an artifact-less plan for a request that asked for them.
	persist := !key.target.RecordSchedule
	compileCtx := s.base
	cancel := func() {}
	if s.cache.max < 1 {
		compileCtx = ctx
	} else if dl, ok := ctx.Deadline(); ok {
		// Propagate the request deadline into the shared compile while
		// keeping shutdown authority with the base context. A waiter
		// with a longer deadline latched onto this flight loses the
		// race, but the error is never cached, so its retry recompiles.
		compileCtx, cancel = context.WithDeadline(s.base, dl)
	}
	defer cancel()
	plan, cached, err := s.cache.do(ctx, key.digest, persist, func() (surfcomm.Plan, error) {
		// Every cache tier missed: only now is the circuit built, and
		// before admission, so a compile slot never waits on a parse.
		src, err := parseQASM(key.qasm)
		if err != nil {
			return surfcomm.Plan{}, err
		}
		if emit != nil {
			emit(surfcomm.Event{Stage: StageQueued})
		}
		if err := s.adm.acquire(ctx); err != nil {
			return surfcomm.Plan{}, err
		}
		start := time.Now()
		observed := time.Duration(0)
		defer func() { s.adm.release(observed) }()
		if d := s.inj.CompileDelay(); d > 0 {
			select {
			case <-time.After(d):
			case <-compileCtx.Done():
				return surfcomm.Plan{}, scerr.Canceled(compileCtx)
			}
		}
		if s.inj.Fire(faultinject.CompileError) {
			return surfcomm.Plan{}, fmt.Errorf("%w: compile of %.12s…", faultinject.ErrInjected, key.digest)
		}
		if emit != nil {
			emit(surfcomm.Event{Stage: StageCompiling, Backend: key.backend.Name()})
		}
		var p surfcomm.Plan
		if src.program != nil {
			// Hierarchical compile: modules are cached independently in
			// the service's LRU/disk stack under their content digests,
			// so an edited program's recompile reuses every unchanged
			// module even though its program digest missed.
			mtc := s.tc.CloneWithModuleCache(&svcModuleCache{s: s, persist: persist})
			p, err = mtc.CompileIncremental(compileCtx, key.backend, src.program, func(t *surfcomm.Target) { *t = key.target })
		} else {
			p, err = s.tc.Compile(compileCtx, key.backend, src.circuit, func(t *surfcomm.Target) { *t = key.target })
		}
		if err == nil {
			// Only successful compiles feed the queue-pricing EWMA:
			// injected/aborted compiles would teach admission the wrong
			// service time.
			observed = time.Since(start)
			if emit != nil {
				emit(surfcomm.Event{Stage: "toolchain/compile", Backend: key.backend.Name(), Cell: p.Circuit})
			}
		}
		return p, err
	})
	if emit != nil && cached {
		// LRU hit, deduped flight, or disk read-through — all served
		// without compiling for this request.
		emit(surfcomm.Event{Stage: StageCached})
	}
	if err != nil {
		return Result{Digest: key.digest, Err: err}, err
	}
	return Result{Plan: plan, Cached: cached, Digest: key.digest}, nil
}

// CompileBatch serves every request across the worker pool, returning
// results in request order at any worker count. Per-request failures
// land in their slot and never abort the batch; identical requests
// inside one batch compile once (the singleflight path) and all report
// the same digest. A canceled context marks unprocessed slots with
// errors matching surfcomm.ErrCanceled.
func (s *Service) CompileBatch(ctx context.Context, reqs []Request) []Result {
	return sweep.MapFill(ctx, sweep.Options{Workers: s.workers}, reqs,
		func(i int, req Request) Result {
			res, _ := s.Compile(ctx, req)
			return res
		},
		func(err error) Result { return Result{Err: err} })
}

// Estimate runs the frontend characterization (Table 2 columns) over
// the request's circuit; only the QASM field is consulted.
func (s *Service) Estimate(req Request) (surfcomm.Estimate, error) {
	src, err := parseQASM(req.QASM)
	if err != nil {
		return surfcomm.Estimate{}, err
	}
	circ := src.circuit
	if src.program != nil {
		// Characterization is a flat-circuit analysis: flatten the
		// program fully inlined (the maximal-parallelism view).
		if circ, err = src.program.Flatten(surfcomm.InlineAll); err != nil {
			return surfcomm.Estimate{}, scerr.BadConfig("service: qasm: %v", err)
		}
	}
	return surfcomm.EstimateCircuit(circ)
}

// Models characterizes the reference application suite once and serves
// the cached models afterwards. Concurrent cold-start requests share
// one characterization (the compile cache's singleflight discipline):
// the leader runs under the service base context so an abandoned
// request cannot abort it, waiters block cancelably on their own
// contexts, and a failed characterization is not cached, so the next
// request retries.
func (s *Service) Models(ctx context.Context) ([]surfcomm.AppModel, error) {
	s.modelsMu.Lock()
	if s.models != nil {
		models := s.models
		s.modelsMu.Unlock()
		return models, nil
	}
	if f := s.modelsFlight; f != nil {
		s.modelsMu.Unlock()
		select {
		case <-f.done:
			return f.models, f.err
		case <-ctx.Done():
			return nil, scerr.Canceled(ctx)
		}
	}
	f := &modelsFlight{done: make(chan struct{})}
	s.modelsFlight = f
	s.modelsMu.Unlock()

	// Resolve the flight even if characterization panics (same wedged-
	// key discipline as planCache.do): waiters get an error, the
	// endpoint stays retryable, the panic continues to the caller.
	defer func() {
		r := recover()
		s.modelsMu.Lock()
		s.modelsFlight = nil
		if r != nil {
			f.err = fmt.Errorf("service: characterization panicked: %v", r)
		} else if f.err == nil {
			s.models = f.models
		}
		s.modelsMu.Unlock()
		close(f.done)
		if r != nil {
			panic(r)
		}
	}()
	f.models, f.err = s.tc.Models(s.base)
	return f.models, f.err
}

// Stats snapshots the cache counters, folding in the module-cache
// layer's hit/miss/disk counters (hierarchical compiles only).
func (s *Service) Stats() CacheStats {
	cs := s.cache.stats()
	cs.ModuleHits = s.modHits.Load()
	cs.ModuleDiskHits = s.modDiskHits.Load()
	cs.ModuleMisses = s.modMisses.Load()
	return cs
}

// AdmissionStats snapshots the admission queue and rate-limit counters.
func (s *Service) AdmissionStats() AdmissionStats {
	return s.adm.stats(s.limiter.rateLimitedCount())
}

// StoreStats snapshots the persistent plan store's counters; nil when
// no store is configured.
func (s *Service) StoreStats() *store.Stats { return s.cache.disk.storeStats() }

// FaultCounts snapshots how often each injected fault fired; nil when
// chaos is off.
func (s *Service) FaultCounts() map[string]uint64 { return s.inj.Counts() }

// AllowClient spends one token from the client's rate-limit bucket
// (cost scales for batches), returning an *OverloadError (429,
// Retry-After set) when the bucket is empty. A service without rate
// limiting allows everything.
func (s *Service) AllowClient(key string, cost int) error {
	ok, wait := s.limiter.allow(key, float64(cost), time.Now())
	if ok {
		return nil
	}
	return overload(429, wait, "service: client %q over its rate limit", key)
}

// Drain flips the service to not-ready: /readyz answers 503 so load
// balancers stop routing here, while in-flight (and even new) requests
// are still served until the listener actually closes. Draining is the
// first step of graceful shutdown.
func (s *Service) Drain() { s.draining.Store(true) }

// Ready reports whether the service should receive new traffic, with
// the reason when not: "draining" during shutdown, "overloaded" while
// the compile queue is saturated (a new compile would be shed).
func (s *Service) Ready() (bool, string) {
	if s.draining.Load() {
		return false, "draining"
	}
	if s.adm.saturated() {
		return false, "overloaded"
	}
	return true, "ready"
}

// Close flushes the write-behind queue to the disk store and stops
// accepting new persistence work. It does not close the store itself
// (the daemon that opened it owns it) and the service keeps serving
// from memory afterwards.
func (s *Service) Close() { s.cache.disk.close() }

// CalibrationHealth reports the toolchain's startup calibration as its
// /healthz view (digest + age at now); nil when the service compiles
// uncalibrated.
func (s *Service) CalibrationHealth(now time.Time) *CalibrationHealth {
	cal := s.tc.Calibration()
	if cal == nil {
		return nil
	}
	return &CalibrationHealth{
		Name:       cal.Name,
		Digest:     cal.Digest(),
		AgeSeconds: cal.Age(now).Seconds(),
	}
}
