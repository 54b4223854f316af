package service

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"surfcomm"
	"surfcomm/internal/scerr"
)

// planCache is the digest-keyed plan cache behind the serving layer: a
// size-bounded LRU over compiled Plans with integrated singleflight, so
// concurrent identical requests compile once and everyone else waits on
// the in-flight result. Errors are never cached — a failed compile is
// recomputed on the next request (config errors are cheap to rediscover
// and transient cancellations must not poison the key).
//
// Correctness leans on compile determinism: a Plan is a pure function
// of (circuit, target, backend) because all pipeline randomness derives
// from explicit seeds, so serving a cached Plan is bit-identical to
// recompiling (pinned by the digest-parity tests).
type planCache struct {
	// disk is the optional crash-safe persistence layer under the LRU:
	// read-through on a miss (before compiling), write-behind on a
	// fresh compile. Nil when the service has no store.
	disk *diskLayer

	mu          sync.Mutex
	max         int // weight budget (see planWeight)
	totalWeight int
	entries     map[string]*list.Element
	lru         *list.List // front = most recently used; values are *cacheEntry
	flights     map[string]*flight

	hits, misses, deduped, diskHits, evictions uint64
}

type cacheEntry struct {
	key    string
	plan   surfcomm.Plan
	weight int
}

// scheduleEntriesPerWeight converts retained schedule artifacts to
// weight units (roughly tens-of-KB granularity).
const scheduleEntriesPerWeight = 256

// planWeight prices a plan for the cache budget. A summary-only plan
// weighs 1, so the budget reads as an entry bound for typical serving;
// plans carrying recorded schedules (record_schedule requests, planar
// move lists) weigh proportionally more, so a handful of huge
// schedules cannot grow resident memory past the same budget that
// bounds thousands of small plans.
func planWeight(p surfcomm.Plan) int {
	w := 1
	if p.Braid != nil {
		w += len(p.Braid.Schedule) / scheduleEntriesPerWeight
	}
	if p.SIMD != nil {
		w += len(p.SIMD.Moves) / scheduleEntriesPerWeight
	}
	return w
}

// flight is one in-progress compile other requests can latch onto.
type flight struct {
	done chan struct{}
	plan surfcomm.Plan
	err  error
}

// newPlanCache returns a cache bounded to max entries; max < 1 disables
// caching (every request compiles, nothing is retained or deduped).
func newPlanCache(max int) *planCache {
	return &planCache{
		max:     max,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
		flights: make(map[string]*flight),
	}
}

// do returns the plan for key, computing it at most once across
// concurrent callers: a present key is a hit, an in-flight key blocks
// on the existing compile (a dedup, reported as cached), and an absent
// key consults the disk layer (when persist allows) before running
// compute. The wait is cancelable through ctx; abandoning a wait never
// aborts the underlying compile, which still lands in the cache for
// future requests (compute must not be bound to any single waiter's
// context — the Service runs it under its base context).
func (c *planCache) do(ctx context.Context, key string, persist bool, compute func() (surfcomm.Plan, error)) (plan surfcomm.Plan, cached bool, err error) {
	if c.max < 1 {
		p, err := compute()
		return p, false, err
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		plan := el.Value.(*cacheEntry).plan
		c.mu.Unlock()
		return plan, true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.deduped++
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.plan, f.err == nil, f.err
		case <-ctx.Done():
			return surfcomm.Plan{}, false, scerr.Canceled(ctx)
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	// The flight must be resolved even if compute panics (the compile
	// pipeline is panic-free by construction, but a wedged key — flight
	// never deleted, done never closed, waiters stuck until their own
	// contexts cancel — is too severe a failure mode to leave to that
	// guarantee). On panic the waiters get an error, the key becomes
	// retryable, and the panic continues to the caller.
	defer func() {
		r := recover()
		c.mu.Lock()
		delete(c.flights, key)
		if r != nil {
			f.err = fmt.Errorf("service: compile panicked: %v", r)
		} else if f.err == nil {
			c.insertLocked(key, f.plan)
		}
		c.mu.Unlock()
		close(f.done)
		if r != nil {
			panic(r)
		}
	}()
	// Read-through: a plan another run (or replica) already compiled is
	// served from disk as a hit and promoted into the LRU by the
	// resolution above. The store verifies checksums on read, so a torn
	// or corrupt entry surfaces here as a plain miss.
	if persist {
		if p, ok := c.disk.load(key); ok {
			c.mu.Lock()
			c.diskHits++
			c.mu.Unlock()
			f.plan = p
			return f.plan, true, nil
		}
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	f.plan, f.err = compute()
	if f.err == nil && persist {
		c.disk.save(key, f.plan)
	}
	return f.plan, false, f.err
}

// peek returns the cached plan under key without touching the
// hit/miss counters (the module layer keeps its own), still promoting
// the entry. Module plans share the LRU budget with program plans —
// a namespaced key ("module/<digest>") keeps the keyspaces apart.
func (c *planCache) peek(key string) (surfcomm.Plan, bool) {
	if c.max < 1 {
		return surfcomm.Plan{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return surfcomm.Plan{}, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).plan, true
}

// put inserts a plan under key (no-op with caching disabled), evicting
// past the weight budget like any fresh compile.
func (c *planCache) put(key string, plan surfcomm.Plan) {
	if c.max < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return // already present (racing module compiles agree byte-for-byte)
	}
	c.insertLocked(key, plan)
}

// insertLocked adds a freshly compiled plan and evicts from the LRU
// tail past the weight budget. A plan heavier than the entire budget
// is not retained at all (it is served to its requesters and then
// recompiled on demand — correct, just never a hit). Callers hold
// c.mu.
func (c *planCache) insertLocked(key string, plan surfcomm.Plan) {
	w := planWeight(plan)
	if w > c.max {
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, plan: plan, weight: w})
	c.totalWeight += w
	for c.totalWeight > c.max {
		back := c.lru.Back()
		e := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.entries, e.key)
		c.totalWeight -= e.weight
		c.evictions++
	}
}

// CacheStats is a point-in-time snapshot of the plan cache's counters.
type CacheStats struct {
	// Entries is the current cached-plan count. MaxEntries is the LRU
	// weight budget: a summary-only plan weighs 1, plans retaining
	// recorded schedules weigh more (see Weight), and the total never
	// exceeds the budget.
	Entries    int `json:"entries"`
	MaxEntries int `json:"max_entries"`
	// Weight is the current total plan weight (== Entries when no
	// cached plan carries recorded schedules).
	Weight int `json:"weight"`
	// Hits are requests answered from a cached plan; Misses compiled
	// fresh; Deduped latched onto a concurrent identical compile;
	// DiskHits were read through from the persistent plan store (also
	// served as cached). Module plans read from the store count only in
	// ModuleDiskHits.
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Deduped  uint64 `json:"deduped"`
	DiskHits uint64 `json:"disk_hits"`
	// Evictions counts plans dropped past the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Inflight is the number of compiles running right now.
	Inflight int `json:"inflight"`
	// Module-layer counters (hierarchical compiles only): ModuleHits
	// are module plans served from the LRU, ModuleDiskHits were read
	// through from the persistent store, ModuleMisses compiled fresh.
	// Filled by Service.Stats — the planCache itself does not track
	// them.
	ModuleHits     uint64 `json:"module_hits,omitempty"`
	ModuleDiskHits uint64 `json:"module_disk_hits,omitempty"`
	ModuleMisses   uint64 `json:"module_misses,omitempty"`
}

// stats snapshots the counters.
func (c *planCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:    c.lru.Len(),
		MaxEntries: c.max,
		Weight:     c.totalWeight,
		Hits:       c.hits,
		Misses:     c.misses,
		Deduped:    c.deduped,
		DiskHits:   c.diskHits,
		Evictions:  c.evictions,
		Inflight:   len(c.flights),
	}
}
