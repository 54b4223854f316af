package service

import (
	"encoding/json"
	"fmt"
	"log"
	"sync"

	"surfcomm"
	"surfcomm/internal/store"
)

// decodePlan reads a stored plan back: the store persists each plan as
// its PlanSummary, the schedule and footprint metrics the serving API
// returns. Backend-specific artifacts (recorded braid schedules, SIMD
// move lists, EPR traces) are deliberately not persisted — they are
// replay/debug payloads, not serving state — so requests compiled with
// record_schedule bypass the disk layer entirely rather than resurface
// artifact-less.
func decodePlan(data []byte) (surfcomm.Plan, error) {
	var ps PlanSummary
	if err := json.Unmarshal(data, &ps); err != nil {
		return surfcomm.Plan{}, fmt.Errorf("service: stored plan: %w", err)
	}
	p := surfcomm.Plan{
		Backend:        ps.Backend,
		Circuit:        ps.Circuit,
		Distance:       ps.Distance,
		Seed:           ps.Seed,
		Device:         ps.Device,
		Cycles:         ps.Cycles,
		Seconds:        ps.Seconds,
		PhysicalQubits: ps.PhysicalQubits,
		CommOps:        ps.CommOps,
	}
	if !persistable(p) {
		return surfcomm.Plan{}, fmt.Errorf("service: stored plan: missing backend/cycles")
	}
	return p, nil
}

// persistable reports whether a plan reads back from the store: a plan
// with no backend or no cycles (an empty circuit compiles to 0 cycles
// on every backend) is refused by decodePlan, so the disk layer never
// writes one.
func persistable(p surfcomm.Plan) bool { return p.Backend != "" && p.Cycles > 0 }

// diskLayer wires a store.Store under the in-memory LRU: read-through
// on misses (a disk hit is served as cached and promoted into the LRU)
// and write-behind on fresh compiles (the requester never waits on
// disk; a failed write logs and costs only a future recompile). The
// store's checksum discipline guarantees load never returns a corrupt
// plan — torn entries are quarantined and read as misses. It keeps no
// hit counter: the program and module layers that read through it
// count their own disk hits.
type diskLayer struct {
	st *store.Store

	mu     sync.Mutex
	wg     sync.WaitGroup
	closed bool
}

func newDiskLayer(st *store.Store) *diskLayer {
	if st == nil {
		return nil
	}
	return &diskLayer{st: st}
}

// load reads through to disk; nil-safe.
func (d *diskLayer) load(digest string) (surfcomm.Plan, bool) {
	if d == nil {
		return surfcomm.Plan{}, false
	}
	payload, ok := d.st.Get(digest)
	if !ok {
		return surfcomm.Plan{}, false
	}
	plan, err := decodePlan(payload)
	if err != nil {
		// Checksum-valid but semantically unusable (e.g. written by an
		// incompatible future version): treat as a miss and recompile.
		log.Printf("service: store entry %.12s… undecodable (%v); recompiling", digest, err)
		return surfcomm.Plan{}, false
	}
	return plan, true
}

// save persists a plan asynchronously (write-behind); nil-safe. Plans
// that would not read back are skipped. Saves after close are dropped —
// shutdown flushes what was queued, it does not accept new work.
func (d *diskLayer) save(digest string, p surfcomm.Plan) {
	if d == nil || !persistable(p) {
		return
	}
	payload, err := json.Marshal(Summarize(p))
	if err != nil {
		log.Printf("service: encode plan %.12s…: %v", digest, err)
		return
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.wg.Add(1)
	d.mu.Unlock()
	go func() {
		defer d.wg.Done()
		if err := d.st.Put(digest, payload); err != nil {
			log.Printf("service: persist plan %.12s…: %v", digest, err)
		}
	}()
}

// close flushes queued writes and stops accepting new ones; nil-safe.
func (d *diskLayer) close() {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.wg.Wait()
}

// storeStats snapshots the underlying store's counters; nil when no
// store is configured.
func (d *diskLayer) storeStats() *store.Stats {
	if d == nil {
		return nil
	}
	st := d.st.Stats()
	return &st
}
