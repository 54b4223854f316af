package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"surfcomm"
	"surfcomm/internal/cluster"
	"surfcomm/internal/service"
)

// TestClusterEndToEndFailover is the PR's acceptance test: three real
// surfcommd service replicas behind the router, a mixed workload in
// flight, and one replica killed mid-load. Every request must be
// answered with 200, 429, or 503 — nothing hangs, nothing leaks a
// transport error to the client — and after the kill the router's
// breaker for the dead replica is open while the survivors absorb its
// keys.
func TestClusterEndToEndFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end cluster test")
	}
	names := []string{"e0", "e1", "e2"}
	servers := make([]*httptest.Server, len(names))
	cfgs := make([]cluster.ReplicaConfig, len(names))
	for i, name := range names {
		tc, err := surfcomm.NewToolchain(surfcomm.WithDistance(5), surfcomm.WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		svc := service.New(tc, service.Config{TrustForwardedFor: true})
		servers[i] = httptest.NewServer(service.NewHandler(svc))
		cfgs[i] = cluster.ReplicaConfig{Name: name, URL: servers[i].URL}
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	rt, err := cluster.New(cluster.Config{
		Replicas:      cfgs,
		FailThreshold: 2,
		Cooldown:      400 * time.Millisecond,
		ProbeInterval: 100 * time.Millisecond,
		ProbeTimeout:  500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()

	// Mixed workload: four distinct circuits across two backends, so
	// the keyspace spans replicas and repeats hit warm caches.
	var bodies [][]byte
	for _, m := range []int{6, 8} {
		for _, backend := range []string{"braid", "planar"} {
			circ, err := surfcomm.NewGSE(surfcomm.GSEConfig{M: m, Steps: 2})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := surfcomm.WriteQASM(&buf, circ); err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(service.Request{QASM: buf.String(), Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, b)
		}
	}

	const (
		workers     = 8
		perWorker   = 16
		killAtTotal = workers * perWorker / 3
	)
	client := &http.Client{Timeout: 15 * time.Second}
	var (
		sent      atomic.Int64
		killOnce  sync.Once
		statusMu  sync.Mutex
		statuses  = map[int]int{}
		transport = map[string]int{}
	)
	victim := servers[1]

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if sent.Add(1) == killAtTotal {
					// SIGKILL-equivalent: drop live connections and the
					// listener while requests are in flight.
					killOnce.Do(func() {
						victim.CloseClientConnections()
						victim.Close()
					})
				}
				body := bodies[(w*perWorker+i)%len(bodies)]
				resp, err := client.Post(front.URL+"/compile", "application/json", bytes.NewReader(body))
				statusMu.Lock()
				if err != nil {
					transport[fmt.Sprintf("%T", err)]++
				} else {
					statuses[resp.StatusCode]++
				}
				statusMu.Unlock()
				if err == nil {
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
				}
			}
		}(w)
	}
	wg.Wait()

	if len(transport) != 0 {
		t.Fatalf("transport-level failures leaked to the client: %v", transport)
	}
	total := 0
	for code, n := range statuses {
		total += n
		switch code {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Errorf("unexpected status %d × %d — the cluster must answer only 200/429/503", code, n)
		}
	}
	if total != workers*perWorker {
		t.Fatalf("answered %d of %d requests", total, workers*perWorker)
	}
	if statuses[http.StatusOK] < total/2 {
		t.Fatalf("only %d/%d requests succeeded; failover is not absorbing the kill: %v",
			statuses[http.StatusOK], total, statuses)
	}

	// The router noticed: dead replica open, survivors carried load.
	resp, err := client.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h cluster.RouterHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, rh := range h.Replicas {
		switch rh.Name {
		case "e1":
			if rh.Breaker == "closed" {
				t.Errorf("killed replica's breaker still closed: %+v", rh)
			}
		default:
			if rh.Served == 0 {
				t.Errorf("surviving replica %s served nothing: %+v", rh.Name, rh)
			}
		}
	}
	if h.Failovers == 0 {
		t.Error("healthz reports zero failovers after a mid-load kill")
	}

	// And the whole fleet still serves: a fresh request succeeds via
	// the survivors.
	resp, err = client.Post(front.URL+"/compile", "application/json", bytes.NewReader(bodies[0]))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-kill compile status %d", resp.StatusCode)
	}
}

// TestMalformedEstimateLeavesBreakersClosed: a circuit with a second
// qubits directive is the client's fault. Through the router each
// /estimate of it answers 400, and no replica's breaker is charged, so
// a well-formed request is still served afterwards.
func TestMalformedEstimateLeavesBreakersClosed(t *testing.T) {
	names := []string{"m0", "m1"}
	cfgs := make([]cluster.ReplicaConfig, len(names))
	for i, name := range names {
		svc := service.New(nil, service.Config{})
		srv := httptest.NewServer(service.NewHandler(svc))
		t.Cleanup(srv.Close)
		cfgs[i] = cluster.ReplicaConfig{Name: name, URL: srv.URL}
	}
	_, front := newRouter(t, cluster.Config{Replicas: cfgs})

	body := compileBody(t, "qubits 5\nh q4\ncnot q0,q4\nqubits 2\n")
	for i := 0; i < 3; i++ {
		resp, err := http.Post(front.URL+"/estimate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("estimate %d: status %d, want 400", i+1, resp.StatusCode)
		}
	}
	for _, rh := range routerHealth(t, front.URL).Replicas {
		if rh.Breaker != "closed" {
			t.Fatalf("malformed estimates charged a breaker: %+v", rh)
		}
	}
	resp := postCompile(t, front.URL, compileBody(t, qasmVariant(t, 4)))
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("well-formed compile after malformed estimates: status %d, want 200", resp.StatusCode)
	}
}
