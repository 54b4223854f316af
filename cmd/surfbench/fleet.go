package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"surfcomm/internal/cluster"
	"surfcomm/internal/service"
	"surfcomm/internal/store"
)

// replicaNames are the fleet's ring identities, in replica order.
var replicaNames = []string{"a", "b"}

// replica is one in-process surfcommd: a service over its own disk
// store, served over loopback HTTP.
type replica struct {
	name  string
	store *store.Store
	svc   *service.Service
	srv   *httptest.Server
}

// fleet is the in-process serving fleet every HTTP workload drives: two
// replicas, each with one compile slot and a 64-entry LRU over its own
// store, behind a default router. All traffic crosses real loopback
// HTTP.
type fleet struct {
	dir    string
	reps   []*replica
	ring   *cluster.Ring
	router *cluster.Router
	front  *httptest.Server
	// client is the compile-path load generator's client: keep-alive,
	// at most one connection per client goroutine.
	client *http.Client
}

// startFleet starts the fleet under a fresh directory of workdir. A
// non-nil tracer wraps the router and replica handlers in span
// recorders and passes the router a hop-timing transport; untraced
// fleets run the stock handlers and the router's default transport.
func startFleet(workdir string, tr *tracer) (*fleet, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir, ring: cluster.NewRing(replicaNames)}
	var cfgs []cluster.ReplicaConfig
	for _, name := range replicaNames {
		st, err := store.Open(filepath.Join(dir, name), nil)
		if err != nil {
			f.close()
			return nil, err
		}
		svc := service.New(nil, service.Config{Workers: 1, MaxEntries: 64, Store: st})
		var h http.Handler = service.NewHandler(svc)
		if tr != nil {
			h = spanHandler{tr: tr, name: spanReplica, next: h}
		}
		rep := &replica{name: name, store: st, svc: svc, srv: httptest.NewServer(h)}
		f.reps = append(f.reps, rep)
		cfgs = append(cfgs, cluster.ReplicaConfig{Name: name, URL: rep.srv.URL})
	}
	cfg := cluster.Config{Replicas: cfgs}
	if tr != nil {
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConnsPerHost = 64 // the router's own default pool size
		cfg.Transport = hopTransport{tr: tr, next: t}
	}
	f.router, err = cluster.New(cfg)
	if err != nil {
		f.close()
		return nil, err
	}
	f.router.Start()
	var front http.Handler = f.router
	if tr != nil {
		front = spanHandler{tr: tr, name: spanRouter, next: f.router}
	}
	f.front = httptest.NewServer(front)
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = maxClients
	f.client = &http.Client{Transport: t, Timeout: 30 * time.Second}
	return f, nil
}

// close stops every server and goroutine the fleet started, flushes
// the replicas' write-behind queues, and removes the stores.
func (f *fleet) close() {
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	if f.front != nil {
		f.front.Close()
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, r := range f.reps {
		r.srv.Close()
		r.svc.Close()
	}
	os.RemoveAll(f.dir) //nolint:errcheck // scratch space; a leftover is harmless
}

// replicaFor returns the replica the router's ring sends a request to.
func (f *fleet) replicaFor(req service.Request) (*replica, error) {
	key, err := service.RoutingKey(req)
	if err != nil {
		return nil, err
	}
	owner := f.ring.Owner(key)
	for _, r := range f.reps {
		if r.name == owner {
			return r, nil
		}
	}
	return nil, fmt.Errorf("no replica named %q", owner)
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	body   []byte
}

// post sends one JSON body to the router; a non-empty id marks the
// request traced.
func (f *fleet) post(ctx context.Context, path string, body []byte, id string) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.front.URL+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(traceHeader, id)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: data}, nil
}

// fleetCounters is a snapshot of the counters the per-layer metrics
// difference over the measured phase.
type fleetCounters struct {
	cache     service.CacheStats // summed over replicas
	shed      uint64             // admission sheds + shed decode sessions
	puts      uint64
	storeHits uint64
	failovers uint64
}

func (f *fleet) counters() (fleetCounters, error) {
	var c fleetCounters
	for _, r := range f.reps {
		cs := r.svc.Stats()
		c.cache.Hits += cs.Hits
		c.cache.Misses += cs.Misses
		c.cache.Deduped += cs.Deduped
		c.cache.DiskHits += cs.DiskHits
		c.cache.ModuleHits += cs.ModuleHits
		c.cache.ModuleDiskHits += cs.ModuleDiskHits
		c.cache.ModuleMisses += cs.ModuleMisses
		c.shed += r.svc.AdmissionStats().Shed + r.svc.DecodeStats().Shed
		if st := r.svc.StoreStats(); st != nil {
			c.puts += st.Puts
			c.storeHits += st.Hits
		}
	}
	resp, err := f.client.Get(f.front.URL + "/healthz")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	var h cluster.RouterHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return c, fmt.Errorf("router healthz: %w", err)
	}
	c.failovers = h.Failovers
	return c, nil
}

func (a fleetCounters) minus(b fleetCounters) fleetCounters {
	return fleetCounters{
		cache: service.CacheStats{
			Hits:           a.cache.Hits - b.cache.Hits,
			Misses:         a.cache.Misses - b.cache.Misses,
			Deduped:        a.cache.Deduped - b.cache.Deduped,
			DiskHits:       a.cache.DiskHits - b.cache.DiskHits,
			ModuleHits:     a.cache.ModuleHits - b.cache.ModuleHits,
			ModuleDiskHits: a.cache.ModuleDiskHits - b.cache.ModuleDiskHits,
			ModuleMisses:   a.cache.ModuleMisses - b.cache.ModuleMisses,
		},
		shed:      a.shed - b.shed,
		puts:      a.puts - b.puts,
		storeHits: a.storeHits - b.storeHits,
		failovers: a.failovers - b.failovers,
	}
}

// waitPuts blocks until the replicas' stores have persisted n plans in
// total (the write-behind queue has drained that far).
func (f *fleet) waitPuts(n uint64) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		var puts uint64
		for _, r := range f.reps {
			puts += r.store.Stats().Puts
		}
		if puts >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("stores persisted %d of %d primed plans", puts, n)
		}
		time.Sleep(time.Millisecond)
	}
}
