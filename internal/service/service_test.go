package service_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"testing"

	"surfcomm"
	"surfcomm/internal/service"
)

// planDigest FNV-hashes the externally visible identity of a Plan —
// the schedule metrics plus every recorded path — matching the
// facade's golden-parity convention. Two plans with equal digests
// compiled bit-identically.
func planDigest(p surfcomm.Plan) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%d/%d/%d/%g/%d:", p.Backend, p.Circuit, p.Distance, p.Seed,
		p.Cycles, p.PhysicalQubits, p.CommOps)
	if p.Braid != nil {
		for _, e := range p.Braid.Schedule {
			fmt.Fprintf(h, "%d/%d/%d/%d/%d:", e.Op, e.Kind, e.Start, e.End, e.Factory)
			for _, n := range e.Path {
				fmt.Fprintf(h, "(%d,%d)", n.Row, n.Col)
			}
		}
	}
	if p.EPR != nil {
		fmt.Fprintf(h, "epr:%d/%d/%d/%d", p.EPR.StallCycles, p.EPR.PeakLiveEPR,
			p.EPR.TotalPairs, p.EPR.ScheduleCycles)
	}
	return h.Sum64()
}

func testQASM(t *testing.T) string {
	t.Helper()
	circ, err := surfcomm.NewGSE(surfcomm.GSEConfig{M: 8, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := surfcomm.WriteQASM(&buf, circ); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func newService(t *testing.T, cfg service.Config) *service.Service {
	t.Helper()
	tc, err := surfcomm.NewToolchain(surfcomm.WithDistance(5), surfcomm.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(tc, cfg)
	// Drain write-behind saves before the store's temp dir is removed
	// (cleanups run in reverse, and the store was opened first).
	t.Cleanup(svc.Close)
	return svc
}

// TestCacheHitMatchesFreshCompile is the tentpole acceptance property:
// for every backend, with and without a defective device, the cached
// plan is FNV-bit-identical to an uncached compile of the same
// request, and the repeat request reports a cache hit.
func TestCacheHitMatchesFreshCompile(t *testing.T) {
	qasm := testQASM(t)
	devices := map[string]*service.DeviceSpec{
		"nodevice": nil,
		"yield":    {Preset: "random-yield", Frac: 0.02, Seed: 7},
	}
	for devName, dev := range devices {
		for _, backend := range []string{"braid", "planar", "surgery"} {
			t.Run(backend+"/"+devName, func(t *testing.T) {
				req := service.Request{QASM: qasm, Backend: backend, Device: dev, RecordSchedule: true}
				cached := newService(t, service.Config{})
				uncached := newService(t, service.Config{MaxEntries: -1})

				first, err := cached.Compile(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				if first.Cached {
					t.Error("first compile should be a miss")
				}
				second, err := cached.Compile(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				if !second.Cached {
					t.Error("second compile should be a hit")
				}
				fresh, err := uncached.Compile(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				if fresh.Cached {
					t.Error("uncached service should always compile fresh")
				}
				fd, sd, ud := planDigest(first.Plan), planDigest(second.Plan), planDigest(fresh.Plan)
				if fd != sd || fd != ud {
					t.Errorf("plan digests diverge: first=%x hit=%x fresh=%x", fd, sd, ud)
				}
				if first.Digest != second.Digest || first.Digest != fresh.Digest {
					t.Errorf("request digests diverge: %s / %s / %s", first.Digest, second.Digest, fresh.Digest)
				}
			})
		}
	}
}

// TestSingleflightDedup pins the dedup invariant: N concurrent
// identical requests compile exactly once (1 miss, N-1 served from the
// flight or the cache), all bit-identical. Run under -race this also
// proves the cache's concurrency safety.
func TestSingleflightDedup(t *testing.T) {
	const n = 8
	svc := newService(t, service.Config{})
	req := service.Request{QASM: testQASM(t), Backend: "braid"}

	var wg sync.WaitGroup
	results := make([]service.Result, n)
	errs := make([]error, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = svc.Compile(context.Background(), req)
		}(i)
	}
	wg.Wait()

	want := planDigest(results[0].Plan)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if got := planDigest(results[i].Plan); got != want {
			t.Errorf("request %d digest %x, want %x", i, got, want)
		}
	}
	st := svc.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 (singleflight)", st.Misses)
	}
	if st.Hits+st.Deduped != n-1 {
		t.Errorf("hits+deduped = %d+%d, want %d", st.Hits, st.Deduped, n-1)
	}
	if st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
}

// TestLRUEvictionBound pins the size bound: the cache never exceeds
// MaxEntries, evicts least-recently-used first, and an evicted key
// compiles fresh again.
func TestLRUEvictionBound(t *testing.T) {
	svc := newService(t, service.Config{MaxEntries: 2})
	qasm := testQASM(t)
	seeds := []int64{1, 2, 3}
	reqs := make([]service.Request, len(seeds))
	for i, s := range seeds {
		seed := s
		reqs[i] = service.Request{QASM: qasm, Backend: "braid", Seed: &seed}
	}
	for _, r := range reqs {
		if _, err := svc.Compile(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if st.Entries > 2 {
		t.Errorf("entries = %d, exceeds bound 2", st.Entries)
	}
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	// reqs[0] was the least recently used — it must have been evicted
	// and recompile as a miss; reqs[2] must still be cached.
	res, err := svc.Compile(context.Background(), reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Error("evicted request should compile fresh")
	}
	res, err = svc.Compile(context.Background(), reqs[2])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Error("most-recent request should still be cached")
	}
}

// TestCompileBatch pins batch semantics: request order preserved at
// any worker count, identical requests share one compile, per-request
// failures stay in their slot, and a canceled context marks every slot
// with ErrCanceled.
func TestCompileBatch(t *testing.T) {
	qasm := testQASM(t)
	reqs := []service.Request{
		{QASM: qasm, Backend: "braid"},
		{QASM: qasm, Backend: "planar"},
		{QASM: qasm, Backend: "nope"},
		{QASM: qasm, Backend: "braid"}, // identical to slot 0
	}
	var serial []service.Result
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		svc := newService(t, service.Config{Workers: workers})
		results := svc.CompileBatch(context.Background(), reqs)
		if len(results) != len(reqs) {
			t.Fatalf("workers=%d: %d results for %d requests", workers, len(results), len(reqs))
		}
		if results[0].Plan.Backend != "braid" || results[1].Plan.Backend != "planar" {
			t.Errorf("workers=%d: slots out of order: %q %q", workers, results[0].Plan.Backend, results[1].Plan.Backend)
		}
		if results[2].Err == nil || !errors.Is(results[2].Err, surfcomm.ErrBadConfig) {
			t.Errorf("workers=%d: slot 2 error = %v, want ErrBadConfig", workers, results[2].Err)
		}
		if results[3].Err != nil || planDigest(results[3].Plan) != planDigest(results[0].Plan) {
			t.Errorf("workers=%d: identical requests diverge", workers)
		}
		if results[0].Digest != results[3].Digest {
			t.Errorf("workers=%d: identical requests keyed differently", workers)
		}
		st := svc.Stats()
		if st.Misses != 2 {
			t.Errorf("workers=%d: misses = %d, want 2 (identical requests compile once)", workers, st.Misses)
		}
		if serial == nil {
			serial = results
			continue
		}
		for i := range results {
			if (results[i].Err == nil) != (serial[i].Err == nil) {
				t.Errorf("workers=%d: slot %d error mismatch vs serial", workers, i)
				continue
			}
			if results[i].Err == nil && planDigest(results[i].Plan) != planDigest(serial[i].Plan) {
				t.Errorf("workers=%d: slot %d plan differs from serial run", workers, i)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, res := range newService(t, service.Config{Workers: 2}).CompileBatch(ctx, reqs) {
		if !errors.Is(res.Err, surfcomm.ErrCanceled) {
			t.Errorf("canceled batch: slot %d error = %v, want ErrCanceled", i, res.Err)
		}
	}
}

// TestBadRequestsMatchErrBadConfig sweeps the malformed-request
// surface: every rejection classifies as ErrBadConfig and nothing
// panics.
func TestBadRequestsMatchErrBadConfig(t *testing.T) {
	svc := newService(t, service.Config{})
	qasm := testQASM(t)
	cases := map[string]service.Request{
		"empty qasm":       {Backend: "braid"},
		"garbage qasm":     {QASM: "not qasm at all"},
		"unknown backend":  {QASM: qasm, Backend: "quantum-modem"},
		"unknown device":   {QASM: qasm, Device: &service.DeviceSpec{Preset: "swiss-cheese"}},
		"negative dist":    {QASM: qasm, Distance: -3},
		"negative pp":      {QASM: qasm, PhysicalError: -1e-8},
		"bad policy":       {QASM: qasm, Policy: ptr(99)},
		"frac sans preset": {QASM: qasm, Device: &service.DeviceSpec{Frac: 0.02, Seed: 7}},
		"frac too big":     {QASM: qasm, Device: &service.DeviceSpec{Preset: "random-yield", Frac: 1.5}},
		"negative frac":    {QASM: qasm, Device: &service.DeviceSpec{Preset: "clustered", Frac: -0.1}},
	}
	for name, req := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := svc.Compile(context.Background(), req)
			if !errors.Is(err, surfcomm.ErrBadConfig) {
				t.Errorf("error = %v, want ErrBadConfig", err)
			}
		})
	}
	if st := svc.Stats(); st.Entries != 0 {
		t.Errorf("failed compiles must not populate the cache, got %d entries", st.Entries)
	}
}

func ptr[T any](v T) *T { return &v }

// TestCanceledCompileNotCached pins the error-caching rule: a canceled
// compile reports ErrCanceled and leaves the key uncached, so the next
// request recomputes.
func TestCanceledCompileNotCached(t *testing.T) {
	svc := newService(t, service.Config{})
	req := service.Request{QASM: testQASM(t), Backend: "braid"}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Compile(ctx, req); !errors.Is(err, surfcomm.ErrCanceled) {
		t.Fatalf("error = %v, want ErrCanceled", err)
	}
	if st := svc.Stats(); st.Entries != 0 {
		t.Fatalf("canceled compile cached %d entries", st.Entries)
	}
	res, err := svc.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Error("retry after cancellation should compile fresh")
	}
}

// TestBaseContextGovernsSharedCompiles pins the ownership rule for
// cache-shared compiles: they run under the service's base context
// (the daemon's process context), not any single request's, so
// shutdown — and only shutdown — cancels them.
func TestBaseContextGovernsSharedCompiles(t *testing.T) {
	tc, err := surfcomm.NewToolchain(surfcomm.WithDistance(5))
	if err != nil {
		t.Fatal(err)
	}
	base, shutdown := context.WithCancel(context.Background())
	svc := service.New(tc, service.Config{BaseContext: base})
	req := service.Request{QASM: testQASM(t), Backend: "braid"}

	// A live base and a live request context compile normally.
	if _, err := svc.Compile(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	// After shutdown, a fresh compile aborts with ErrCanceled even
	// though the request context is live — proof the compile runs
	// under the base context.
	shutdown()
	other := service.Request{QASM: testQASM(t), Backend: "planar"}
	if _, err := svc.Compile(context.Background(), other); !errors.Is(err, surfcomm.ErrCanceled) {
		t.Errorf("compile under canceled base = %v, want ErrCanceled", err)
	}
	// Cached plans are still served — shutdown drains, it does not
	// forget.
	res, err := svc.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Error("cached plan should survive base cancellation")
	}
}

// TestDigestSeparatesTargets pins cache-key hygiene: requests that
// differ in any plan-affecting knob occupy different cache lines.
func TestDigestSeparatesTargets(t *testing.T) {
	svc := newService(t, service.Config{})
	qasm := testQASM(t)
	base := service.Request{QASM: qasm, Backend: "braid"}
	variants := []service.Request{
		{QASM: qasm, Backend: "planar"},
		{QASM: qasm, Backend: "braid", Distance: 7},
		{QASM: qasm, Backend: "braid", Seed: ptr(int64(9))},
		{QASM: qasm, Backend: "braid", PhysicalError: 1e-5},
		{QASM: qasm, Backend: "braid", Device: &service.DeviceSpec{Preset: "random-yield", Frac: 0.01, Seed: 3}},
		{QASM: qasm, Backend: "braid", RecordSchedule: true},
	}
	bres, err := svc.Compile(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{bres.Digest: true}
	for i, v := range variants {
		res, err := svc.Compile(context.Background(), v)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if seen[res.Digest] {
			t.Errorf("variant %d shares a digest with an earlier request", i)
		}
		seen[res.Digest] = true
	}
}

// TestDigestCanonicalizesQASM pins the other direction: textually
// different requests meaning the same compile share one cache line.
func TestDigestCanonicalizesQASM(t *testing.T) {
	svc := newService(t, service.Config{})
	qasm := testQASM(t)
	first, err := svc.Compile(context.Background(), service.Request{QASM: qasm})
	if err != nil {
		t.Fatal(err)
	}
	// Trailing blank lines leave the parsed circuit unchanged, so the
	// digest must not move.
	second, err := svc.Compile(context.Background(), service.Request{QASM: qasm + "\n\n  \n"})
	if err != nil {
		t.Fatal(err)
	}
	if first.Digest != second.Digest {
		t.Errorf("canonically equal requests keyed differently: %s vs %s", first.Digest, second.Digest)
	}
	if !second.Cached {
		t.Error("canonically equal request should hit the cache")
	}
}

// TestCompileDigestPinned pins the hex of one compile digest. Disk
// stores name entries plans/<digest>.plan, so any drift in how the
// digest folds the target or the circuit cold-starts every persisted
// store.
func TestCompileDigestPinned(t *testing.T) {
	circ := surfcomm.NewCircuit("pin", 4)
	circ.Append(surfcomm.OpH, 0)
	circ.Append(surfcomm.OpCNOT, 0, 3)
	circ.Append(surfcomm.OpT, 2)
	circ.Append(surfcomm.OpCNOT, 1, 2)
	var buf bytes.Buffer
	if err := surfcomm.WriteQASM(&buf, circ); err != nil {
		t.Fatal(err)
	}
	policy, seed := 3, int64(11)
	res, err := newService(t, service.Config{}).Compile(context.Background(), service.Request{
		QASM:           buf.String(),
		Backend:        "braid",
		Distance:       7,
		Policy:         &policy,
		Seed:           &seed,
		Window:         40,
		PhysicalError:  1e-6,
		RecordSchedule: true,
		Device:         &service.DeviceSpec{Preset: "random-yield", Frac: 0.02, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = "021d2c2fd8606eb4066599ef63b7445c49c791cd0a0c3eac8c26797a6a4fcee2"
	if res.Digest != want {
		t.Errorf("compile digest = %s, want %s", res.Digest, want)
	}
}
