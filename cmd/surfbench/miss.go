package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"time"

	"surfcomm"
	"surfcomm/internal/service"
)

const (
	missMinQ  = 24
	missSizes = 73 // 24..96 qubits
	// missSampleStride spaces the sample ops 0, 10, ..., 80: one per
	// family and backend, each at a different size. Setup compiles them
	// in process as an answer check at every seed, and the engine
	// replays rerun them.
	missSampleStride = 10
)

// serveMiss is the compile-engine path: every request is a (circuit,
// target seed) pair the fleet has never seen, so it misses the LRU and
// the disk store, compiles, and is persisted behind the response.
type serveMiss struct {
	f      *fleet
	seed   int64
	circs  [3][missSizes]*surfcomm.Circuit
	qasm   [3][missSizes][]byte
	oracle []planTuple // the in-process answer for sample op k*missSampleStride
}

func (w *serveMiss) clients() int  { return maxClients }
func (w *serveMiss) cycle() int    { return 1 }
func (w *serveMiss) fleet() *fleet { return w.f }

func (w *serveMiss) close() {
	if w.f != nil {
		w.f.close()
	}
}

func (w *serveMiss) setup(b *bench) error {
	w.seed = b.seed
	for f, fam := range families {
		for s := 0; s < missSizes; s++ {
			c, err := flatCircuit(fam, missMinQ+s)
			if err != nil {
				return err
			}
			if w.qasm[f][s], err = qasmJSON(c); err != nil {
				return err
			}
			w.circs[f][s] = c
		}
	}
	// Oracle: the sample ops compiled in process with the replicas'
	// toolchain.
	tc, err := surfcomm.NewToolchain()
	if err != nil {
		return err
	}
	w.oracle = make([]planTuple, 9)
	for k := range w.oracle {
		fam, be, size, seed := w.shape(int64(k * missSampleStride))
		backend, err := surfcomm.BackendByName(be)
		if err != nil {
			return err
		}
		plan, err := tc.Compile(context.Background(), backend, w.circs[fam][size], func(t *surfcomm.Target) { t.Seed = seed })
		if err != nil {
			return err
		}
		w.oracle[k] = tupleOf(service.Summarize(plan))
	}
	w.f, err = startFleet(b.workdir, b.tr)
	return err
}

func (w *serveMiss) shape(i int64) (fam int, backend string, size int, seed int64) {
	return missShape(w.seed, i)
}

// missShape returns op i's family index, backend, size index and
// target seed. Family and backend cycle with period 9; sizes follow a
// golden-ratio sequence offset by the seed, which spreads any stretch of
// ops evenly over the 73 sizes, so every run and every seed compiles the
// same cost mix. The target seed makes every op a new digest.
func missShape(seed, i int64) (fam int, backend string, size int, tseed int64) {
	const phi = 0.6180339887498949
	combo := int(i % 9)
	x := math.Mod(float64(mix(seed, 2))/(1<<31)+float64(i/9)*phi, 1)
	return combo % 3, backends[combo/3], int(x * missSizes), mix(seed, 3, i)
}

func (w *serveMiss) body(i int64) []byte {
	fam, be, size, seed := w.shape(i)
	return compileBody(w.qasm[fam][size], be, seed)
}

func (w *serveMiss) do(ctx context.Context, b *bench, _ int, i int64, traced bool) []sample {
	_, be, _, seed := w.shape(i)
	body := w.body(i)
	s := sample{op: i, traced: traced, id: b.traceID(traced, i)}
	start := time.Now()
	rep, err := w.f.post(ctx, "/compile", body, s.id)
	end := time.Now()
	s.lat = end.Sub(start)
	b.span(s.id, spanClient, start, end, 0)
	if err != nil || rep.status != http.StatusOK {
		s.failed = true
		return []sample{s}
	}
	var cr service.CompileResponse
	switch {
	case json.Unmarshal(rep.body, &cr) != nil || cr.Plan == nil:
		b.chk.failf("serve-miss op %d: undecodable reply %.200s", i, rep.body)
	case cr.Cached:
		b.chk.failf("serve-miss op %d: a never-seen request was served from cache", i)
	case cr.Plan.Backend != be || cr.Plan.Seed != seed || cr.Plan.Cycles <= 0:
		b.chk.failf("serve-miss op %d: plan %+v for backend %s seed %d", i, *cr.Plan, be, seed)
	case i%missSampleStride == 0 && i/missSampleStride < 9 && tupleOf(*cr.Plan) != w.oracle[i/missSampleStride]:
		b.chk.failf("serve-miss op %d: plan %+v, in-process compile %+v", i, tupleOf(*cr.Plan), w.oracle[i/missSampleStride])
	case i < goldenOps:
		b.gold.plan(b, "serve-miss", i, tupleOf(*cr.Plan))
	}
	return []sample{s}
}

func (w *serveMiss) request(i int64) (string, service.Request, error) {
	var req service.Request
	err := json.Unmarshal(w.body(i), &req)
	return "/compile", req, err
}

// work replays each op's resolve and compile on a cache-less in-process
// service: the work the replica did besides waiting and HTTP.
func (w *serveMiss) work(ops []int64) ([]time.Duration, error) {
	svc := service.New(nil, service.Config{Workers: 1, MaxEntries: -1})
	return replayCompiles(svc, w, ops)
}

// replayCompiles times Service.Compile on each op's request.
func replayCompiles(svc *service.Service, w compilePath, ops []int64) ([]time.Duration, error) {
	out := make([]time.Duration, len(ops))
	for k, i := range ops {
		_, req, err := w.request(i)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		_, err = svc.Compile(context.Background(), req)
		out[k] = time.Since(start)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
