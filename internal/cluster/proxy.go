package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"surfcomm/internal/service"
)

// shardResult is one batch shard's outcome: either a decoded slot
// array (status 200), a relayed rate limit (status 429), or a shard
// that exhausted its failover attempts (status 0) with the error text
// to surface per-slot.
type shardResult struct {
	indices    []int
	slots      []service.CompileResponse
	status     int
	retryAfter string
	errText    string
}

// handleBatch scatter-gathers POST /batch: slots are grouped by their
// routing key's owner so each sub-batch lands on the replica whose
// cache already holds (or will next be asked for) those digests, the
// groups run concurrently, and the slots are reassembled in request
// order. Rate limiting stays all-or-nothing like a single replica: any
// group's 429 fails the whole batch, because the client's token bucket
// is shared across replicas via the forwarded client key.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var reqs []service.Request
	if err := json.Unmarshal(body, &reqs); err != nil {
		// Not a request array the router can split: forward verbatim to
		// one replica and let it produce the authoritative 400.
		rt.forward(w, r, "", body)
		return
	}
	if len(reqs) == 0 {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("[]\n")) //nolint:errcheck
		return
	}

	// Group slot indices by owning replica. Unkeyable slots (bad QASM)
	// share one deterministic bucket; the owning replica reports their
	// per-slot errors exactly as a single node would.
	groups := make(map[string][]int)
	keys := make([]string, len(reqs))
	for i, req := range reqs {
		key, kerr := service.RoutingKey(req)
		if kerr != nil {
			key = "unkeyed"
		}
		keys[i] = key
		groups[rt.ring.Owner(key)] = append(groups[rt.ring.Owner(key)], i)
	}

	results := make([]shardResult, 0, len(groups))
	owners := make([]string, 0, len(groups))
	for owner := range groups {
		owners = append(owners, owner)
	}
	sort.Strings(owners)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, owner := range owners {
		indices := groups[owner]
		sub := make([]service.Request, len(indices))
		for j, idx := range indices {
			sub[j] = reqs[idx]
		}
		subBody, merr := json.Marshal(sub)
		if merr != nil {
			http.Error(w, "cluster: re-encoding batch: "+merr.Error(), http.StatusInternalServerError)
			return
		}
		// The group's failover order is its first slot's ranked list —
		// every slot in the group shares the same owner, so the lists
		// agree on the head, which is what matters.
		ranked := rt.rankedAllowed(keys[indices[0]])
		wg.Add(1)
		go func(indices []int, ranked []*replica, subBody []byte) {
			defer wg.Done()
			res := rt.doGroup(r, ranked, subBody, len(indices))
			res.indices = indices
			mu.Lock()
			results = append(results, res)
			mu.Unlock()
		}(indices, ranked, subBody)
	}
	wg.Wait()

	// All-or-nothing outcomes first.
	allFailed := true
	var sawRetryAfter string
	for _, res := range results {
		if res.status == http.StatusTooManyRequests {
			if res.retryAfter != "" {
				w.Header().Set("Retry-After", res.retryAfter)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{ //nolint:errcheck
				"error": "service: rate limit exceeded for this client",
			})
			return
		}
		if res.status == http.StatusOK {
			allFailed = false
		} else if res.retryAfter != "" {
			sawRetryAfter = res.retryAfter
		}
	}
	if allFailed {
		rt.refuse(w, sawRetryAfter, "cluster: every batch shard failed")
		return
	}

	out := make([]service.CompileResponse, len(reqs))
	for _, res := range results {
		for j, idx := range res.indices {
			if res.status == http.StatusOK {
				out[idx] = res.slots[j]
			} else {
				out[idx] = service.CompileResponse{Error: res.errText}
			}
		}
	}
	rt.forwarded.Add(1)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out) //nolint:errcheck
}

// doGroup sends one batch shard along its failover sequence and
// decodes the reply. It never writes to the client.
func (rt *Router) doGroup(r *http.Request, ranked []*replica, subBody []byte, slots int) (res shardResult) {
	res.errText = "cluster: no replica available for this shard"
	for i, rep := range ranked {
		resp, err := rt.do(r.Context(), rep, r, bytes.NewReader(subBody))
		if failover(resp, err) {
			if ra := rep.fail(resp); ra != "" {
				res.retryAfter = ra
			}
			if i+1 < len(ranked) {
				rt.failovers.Add(1)
			}
			if err != nil {
				res.errText = "cluster: shard failed: " + err.Error()
			} else {
				res.errText = "cluster: shard failed: replicas unavailable"
			}
			continue
		}
		rep.br.Success()
		rep.served.Add(1)
		payload, rerr := io.ReadAll(io.LimitReader(resp.Body, service.MaxBodyBytes))
		resp.Body.Close()
		if rerr != nil {
			rep.failed.Add(1)
			res.errText = "cluster: reading shard reply: " + rerr.Error()
			continue
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var slotResps []service.CompileResponse
			if jerr := json.Unmarshal(payload, &slotResps); jerr != nil || len(slotResps) != slots {
				res.errText = "cluster: malformed shard reply"
				continue
			}
			res.status = http.StatusOK
			res.slots = slotResps
			return res
		case http.StatusTooManyRequests:
			res.status = http.StatusTooManyRequests
			res.retryAfter = resp.Header.Get("Retry-After")
			return res
		default:
			// A non-retryable whole-shard error (400 on a malformed
			// sub-request we built — should not happen): surface it
			// per-slot rather than guessing.
			res.errText = "cluster: shard rejected with status " + strconv.Itoa(resp.StatusCode) + ": " + string(payload)
			return res
		}
	}
	return res
}

// handleDecodeStream relays POST /decode, the full-duplex NDJSON
// syndrome stream. The request body cannot be buffered or replayed, so
// the stream gets exactly one replica — chosen round-robin over the
// allowed set — and no failover once bytes are moving.
func (rt *Router) handleDecodeStream(w http.ResponseWriter, r *http.Request) {
	names := rt.ring.Names()
	start := int(rt.rr.Add(1) % uint64(len(names)))
	var rep *replica
	for off := range names {
		cand := rt.replicas[names[(start+off)%len(names)]]
		if cand.br.Allow() {
			rep = cand
			break
		}
	}
	if rep == nil {
		rt.refuse(w, "", "")
		return
	}
	// Full duplex: the client keeps sending syndrome rounds while the
	// replica's corrections flow back through us.
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex() //nolint:errcheck // unsupported writers just degrade to half-duplex
	// One session per client connection, as on the replica: a reused
	// full-duplex connection races the next request's read against the
	// finished session's body reader.
	w.Header().Set("Connection", "close")
	resp, err := rt.do(r.Context(), rep, r, r.Body)
	if err != nil {
		rep.fail(nil)
		rt.refused.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "cluster: decode replica unavailable", http.StatusServiceUnavailable)
		return
	}
	rt.relay(w, resp, rep)
}

// ReplicaHealth is one replica's row in the router /healthz reply.
type ReplicaHealth struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Breaker string `json:"breaker"`
	Served  uint64 `json:"served"`
	Failed  uint64 `json:"failed"`
	// Calibration is the replica's last-probed calibration digest
	// ("uncalibrated" when it compiles on the uniform device; empty
	// before the first successful probe). Divergent digests across rows
	// mean the fleet disagrees on what it is compiling for.
	Calibration string `json:"calibration,omitempty"`
}

// RouterHealth is the router's /healthz reply: the cluster as the
// router sees it.
type RouterHealth struct {
	Status       string          `json:"status"` // "ok" or "degraded"
	Replicas     []ReplicaHealth `json:"replicas"`
	Forwarded    uint64          `json:"forwarded"`
	Failovers    uint64          `json:"failovers"`
	Hedges       uint64          `json:"hedges"`
	Refused      uint64          `json:"refused"`
	LatencyP50Ms float64         `json:"latency_p50_ms"`
	LatencyP99Ms float64         `json:"latency_p99_ms"`
	Samples      int             `json:"latency_samples"`
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := RouterHealth{
		Forwarded: rt.forwarded.Load(),
		Failovers: rt.failovers.Load(),
		Hedges:    rt.hedges.Load(),
		Refused:   rt.refused.Load(),
	}
	routable := 0
	for _, name := range rt.ring.Names() {
		rep := rt.replicas[name]
		state := rep.br.State()
		if state != Open {
			routable++
		}
		digest, _ := rep.calDigest.Load().(string)
		h.Replicas = append(h.Replicas, ReplicaHealth{
			Name:        rep.name,
			URL:         rep.base.String(),
			Breaker:     state.String(),
			Served:      rep.served.Load(),
			Failed:      rep.failed.Load(),
			Calibration: digest,
		})
	}
	h.Status = "ok"
	if routable < len(rt.replicas) {
		h.Status = "degraded"
	}
	if p50, n := rt.lat.Percentile(0.50); n > 0 {
		p99, _ := rt.lat.Percentile(0.99)
		h.LatencyP50Ms = float64(p50) / float64(time.Millisecond)
		h.LatencyP99Ms = float64(p99) / float64(time.Millisecond)
		h.Samples = n
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h) //nolint:errcheck
}

func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	for _, rep := range rt.replicas {
		if rep.br.State() != Open {
			w.WriteHeader(http.StatusOK)
			w.Write([]byte("ok\n")) //nolint:errcheck
			return
		}
	}
	w.Header().Set("Retry-After", "1")
	w.WriteHeader(http.StatusServiceUnavailable)
	w.Write([]byte("no routable replicas\n")) //nolint:errcheck
}
