package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"surfcomm"
	"surfcomm/internal/service"
)

const (
	hotEntries  = 256
	hotZipfS    = 1.1
	hotEstimate = 0.15
	// hotSchedule is the length of the pre-drawn request sequence; op i
	// sends item i mod hotSchedule.
	hotSchedule = 1 << 16
)

// hotEntry is one corpus circuit with its request and its oracles.
type hotEntry struct {
	body   []byte
	circ   *surfcomm.Circuit
	est    service.EstimateResponse // computed in process, not by the fleet
	primed planTuple                // the fleet's answer when priming
}

type hotItem struct {
	entry    int
	estimate bool
}

// serveHot is the read-heavy cache path: a Zipf mix over a primed
// corpus, so every /compile is an LRU or disk-store hit.
type serveHot struct {
	f       *fleet
	entries []hotEntry
	sched   []hotItem
}

// hotShape fixes entry i's family, backend and size. The shape does
// not depend on the seed, so the Zipf head costs the same at every
// seed; the seed draws each entry's target seed and the request order.
func hotShape(i int) (family, backend string, qubits int) {
	return families[i%3], backends[(i/3)%3], 8 + (i*13)%33
}

func (w *serveHot) clients() int  { return maxClients }
func (w *serveHot) cycle() int    { return 1 }
func (w *serveHot) fleet() *fleet { return w.f }

func (w *serveHot) close() {
	if w.f != nil {
		w.f.close()
	}
}

func (w *serveHot) setup(b *bench) error {
	w.entries = make([]hotEntry, hotEntries)
	for i := range w.entries {
		fam, be, q := hotShape(i)
		c, err := flatCircuit(fam, q)
		if err != nil {
			return err
		}
		qj, err := qasmJSON(c)
		if err != nil {
			return err
		}
		est, err := surfcomm.EstimateCircuit(c)
		if err != nil {
			return err
		}
		w.entries[i] = hotEntry{body: compileBody(qj, be, mix(b.seed, 1, int64(i))), circ: c, est: estimateResponse(est)}
	}
	rng := rand.New(rand.NewSource(b.seed))
	zipf := rand.NewZipf(rng, hotZipfS, 1, hotEntries-1)
	w.sched = make([]hotItem, hotSchedule)
	for i := range w.sched {
		w.sched[i] = hotItem{entry: int(zipf.Uint64()), estimate: rng.Float64() < hotEstimate}
	}

	var err error
	if w.f, err = startFleet(b.workdir, b.tr); err != nil {
		return err
	}
	// Prime: compile every entry once through the router, then wait for
	// the write-behind store puts, so measured requests only ever hit.
	err = parallel(maxClients, hotEntries, func(i int) error {
		rep, err := w.f.post(context.Background(), "/compile", w.entries[i].body, "")
		if err != nil {
			return fmt.Errorf("priming entry %d: %w", i, err)
		}
		var cr service.CompileResponse
		if rep.status != http.StatusOK || json.Unmarshal(rep.body, &cr) != nil || cr.Plan == nil {
			return fmt.Errorf("priming entry %d: status %d: %.200s", i, rep.status, rep.body)
		}
		w.entries[i].primed = tupleOf(*cr.Plan)
		b.gold.plan(b, "serve-hot", int64(i), w.entries[i].primed)
		return nil
	})
	if err != nil {
		return err
	}
	return w.f.waitPuts(hotEntries)
}

func (w *serveHot) item(i int64) (hotItem, *hotEntry) {
	it := w.sched[i%hotSchedule]
	return it, &w.entries[it.entry]
}

func (w *serveHot) do(ctx context.Context, b *bench, _ int, i int64, traced bool) []sample {
	it, e := w.item(i)
	path := "/compile"
	if it.estimate {
		path = "/estimate"
	}
	s := sample{op: i, traced: traced, id: b.traceID(traced, i)}
	start := time.Now()
	rep, err := w.f.post(ctx, path, e.body, s.id)
	end := time.Now()
	s.lat = end.Sub(start)
	b.span(s.id, spanClient, start, end, 0)
	if err != nil || rep.status != http.StatusOK {
		s.failed = true
		return []sample{s}
	}
	if it.estimate {
		var er service.EstimateResponse
		if err := json.Unmarshal(rep.body, &er); err != nil || er != e.est {
			b.chk.failf("serve-hot op %d: /estimate %.200s, oracle %+v", i, rep.body, e.est)
		}
		return []sample{s}
	}
	var cr service.CompileResponse
	switch {
	case json.Unmarshal(rep.body, &cr) != nil || cr.Plan == nil:
		b.chk.failf("serve-hot op %d: undecodable /compile reply %.200s", i, rep.body)
	case tupleOf(*cr.Plan) != e.primed:
		b.chk.failf("serve-hot op %d: plan %+v, priming answer %+v", i, tupleOf(*cr.Plan), e.primed)
	case !cr.Cached:
		b.chk.failf("serve-hot op %d: entry %d missed every cache tier", i, it.entry)
	}
	return []sample{s}
}

// request returns op i's endpoint and decoded request.
func (w *serveHot) request(i int64) (string, service.Request, error) {
	it, e := w.item(i)
	var req service.Request
	err := json.Unmarshal(e.body, &req)
	if it.estimate {
		return "/estimate", req, err
	}
	return "/compile", req, err
}

// work replays each op's service-side work on the replica that served
// it: a cache hit (or an estimate) on a warmed in-process service.
func (w *serveHot) work(ops []int64) ([]time.Duration, error) {
	out := make([]time.Duration, len(ops))
	for k, i := range ops {
		path, req, err := w.request(i)
		if err != nil {
			return nil, err
		}
		rep, err := w.f.replicaFor(req)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if path == "/estimate" {
			_, err = rep.svc.Estimate(req)
		} else {
			_, err = rep.svc.Compile(context.Background(), req)
		}
		out[k] = time.Since(start)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func estimateResponse(est surfcomm.Estimate) service.EstimateResponse {
	return service.EstimateResponse{
		Name:          est.Name,
		LogicalQubits: est.LogicalQubits,
		LogicalOps:    est.LogicalOps,
		TCount:        est.TCount,
		TwoQubitOps:   est.TwoQubitOps,
		CriticalPath:  est.CriticalPath,
		Parallelism:   est.Parallelism,
	}
}
