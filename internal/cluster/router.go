package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"surfcomm/internal/service"
)

// ReplicaHeader is the response header naming which replica served a
// routed request — the load generator uses it to measure keyspace
// balance, and operators use it to attribute tail latency.
const ReplicaHeader = "X-Surfcomm-Replica"

// ReplicaConfig names one surfcommd replica.
type ReplicaConfig struct {
	Name string // stable identity on the ring (survives URL changes)
	URL  string // base URL, e.g. http://127.0.0.1:8723
}

// Config tunes the router.
type Config struct {
	Replicas []ReplicaConfig

	// MaxAttempts bounds failover: how many distinct replicas one
	// request may be sent to. Zero selects min(3, len(Replicas)).
	MaxAttempts int

	// FailThreshold / Cooldown tune the per-replica breakers (zero
	// selects the package defaults).
	FailThreshold int
	Cooldown      time.Duration

	// ProbeInterval / ProbeTimeout tune the active health prober
	// started by Start. Zero selects 1s for both.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration

	// HedgePercentile, when in (0,1), arms request hedging: once a
	// request outlives that percentile of recent latencies, a second
	// copy is raced against the next replica on the ring and the first
	// usable answer wins. Zero disables hedging.
	HedgePercentile float64
	// HedgeMinSamples is how many latency samples must exist before
	// hedging arms (zero selects 32) — hedging off a cold sampler
	// would fire on noise.
	HedgeMinSamples int

	// Transport overrides the upstream round-tripper (tests).
	Transport http.RoundTripper

	// Logf receives operational events (failovers, breaker trips);
	// nil discards them.
	Logf func(format string, args ...any)
}

// replica is one upstream plus its health state.
type replica struct {
	name   string
	base   *url.URL
	br     *Breaker
	served atomic.Uint64 // responses relayed from this replica
	failed atomic.Uint64 // connection errors + 5xx from this replica
	// calDigest is the replica's last-probed calibration digest
	// ("uncalibrated" for replicas compiling on the uniform device) —
	// replicas disagreeing here split the plan keyspace, so the prober
	// logs every change and /healthz reports the fleet view.
	calDigest atomic.Value // string
}

// Router is the consistent-hash front door: it owns the ring, the
// breakers, the prober, and the failover/hedging proxy logic. It is an
// http.Handler serving the same endpoint surface as a single surfcommd,
// plus its own /healthz (cluster view) and /readyz (≥1 replica
// routable).
type Router struct {
	cfg      Config
	ring     *Ring
	replicas map[string]*replica
	client   *http.Client
	mux      *http.ServeMux
	lat      *sampler
	logf     func(string, ...any)

	forwarded atomic.Uint64 // requests relayed end to end
	failovers atomic.Uint64 // attempts beyond the first
	hedges    atomic.Uint64 // hedge attempts fired
	refused   atomic.Uint64 // 503s issued because no replica was routable
	rr        atomic.Uint64 // round-robin cursor for unkeyed streams

	probeStop chan struct{}
	probeWG   sync.WaitGroup
	startOnce sync.Once
	stopOnce  sync.Once
}

// New builds a router over the replica set. It does not start the
// prober; call Start for that (tests drive breakers directly).
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: no replicas configured")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rt := &Router{
		cfg:       cfg,
		replicas:  make(map[string]*replica, len(cfg.Replicas)),
		lat:       newSampler(0),
		logf:      logf,
		probeStop: make(chan struct{}),
	}
	names := make([]string, 0, len(cfg.Replicas))
	for _, rc := range cfg.Replicas {
		name := rc.Name
		if name == "" {
			name = rc.URL
		}
		u, err := url.Parse(rc.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: replica %q: bad URL %q", name, rc.URL)
		}
		if _, dup := rt.replicas[name]; dup {
			return nil, fmt.Errorf("cluster: duplicate replica name %q", name)
		}
		rt.replicas[name] = &replica{
			name: name,
			base: u,
			br:   NewBreaker(cfg.FailThreshold, cfg.Cooldown),
		}
		names = append(names, name)
	}
	rt.ring = NewRing(names)
	transport := cfg.Transport
	if transport == nil {
		// Per-replica connection pools sized for a fleet front door.
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConnsPerHost = 64
		transport = t
	}
	rt.client = &http.Client{Transport: transport}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /compile", rt.handleKeyed)
	mux.HandleFunc("POST /estimate", rt.handleKeyed)
	mux.HandleFunc("POST /batch", rt.handleBatch)
	mux.HandleFunc("POST /decode", rt.handleDecodeStream)
	// Body-less GETs: any replica can answer, so walk ring order with
	// failover.
	mux.HandleFunc("GET /models", func(w http.ResponseWriter, r *http.Request) { rt.forward(w, r, "", nil) })
	mux.HandleFunc("GET /healthz", rt.handleHealth)
	mux.HandleFunc("GET /readyz", rt.handleReady)
	rt.mux = mux
	return rt, nil
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Start launches the active health prober. Safe to call once.
func (rt *Router) Start() {
	rt.startOnce.Do(func() {
		interval := rt.cfg.ProbeInterval
		if interval <= 0 {
			interval = time.Second
		}
		rt.probeWG.Add(1)
		go rt.probeLoop(interval)
	})
}

// Close stops the prober and idle upstream connections.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.probeStop) })
	rt.probeWG.Wait()
	rt.client.CloseIdleConnections()
}

func (rt *Router) probeLoop(interval time.Duration) {
	defer rt.probeWG.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.probeStop:
			return
		case <-ticker.C:
			rt.probeAll()
		}
	}
}

func (rt *Router) probeAll() {
	timeout := rt.cfg.ProbeTimeout
	if timeout <= 0 {
		timeout = time.Second
	}
	var wg sync.WaitGroup
	for _, rep := range rt.replicas {
		// An Open breaker inside its cooldown is left alone: probing it
		// early would either flap it HalfOpen ahead of schedule or pile
		// connection attempts on a replica that is likely restarting.
		if rep.br.State() == Open && rep.br.RetryAfter() > 0 {
			continue
		}
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.base.JoinPath("/readyz").String(), nil)
			if err != nil {
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				rep.br.Failure()
				return
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10)) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				if rep.br.State() != Closed {
					rt.logf("cluster: probe closed breaker for %s", rep.name)
				}
				rep.br.Success()
				rt.probeCalibration(ctx, rep)
			} else {
				rep.br.Failure()
			}
		}(rep)
	}
	wg.Wait()
}

// probeCalibration relays a ready replica's /healthz calibration view
// into the probe log: the digest identifies which snapshot the replica
// compiles under, so a fleet serving divergent calibrations (one
// replica restarted onto a fresher snapshot) is visible the moment the
// prober sees it. Only changes are logged; probe failures here are
// silent (readiness already passed — a slow /healthz is not an outage).
func (rt *Router) probeCalibration(ctx context.Context, rep *replica) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.base.JoinPath("/healthz").String(), nil)
	if err != nil {
		return
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10)) //nolint:errcheck
		return
	}
	var h struct {
		Calibration *service.CalibrationHealth `json:"calibration"`
	}
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&h) != nil {
		return
	}
	digest := "uncalibrated"
	if h.Calibration != nil && h.Calibration.Digest != "" {
		digest = h.Calibration.Digest
	}
	if prev, _ := rep.calDigest.Swap(digest).(string); prev != digest {
		if h.Calibration != nil {
			rt.logf("cluster: probe: %s calibration %q digest %.12s… age %.0fs",
				rep.name, h.Calibration.Name, digest, h.Calibration.AgeSeconds)
		} else {
			rt.logf("cluster: probe: %s uncalibrated", rep.name)
		}
	}
}

// rankedAllowed returns the failover sequence for key, filtered to
// replicas whose breakers admit traffic right now, capped at the
// attempt budget. An empty key falls back to ring order (requests the
// router cannot key still deserve failover).
func (rt *Router) rankedAllowed(key string) []*replica {
	var names []string
	if key != "" {
		names = rt.ring.Ranked(key)
	} else {
		names = rt.ring.Names()
	}
	maxAttempts := rt.cfg.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 3
	}
	out := make([]*replica, 0, maxAttempts)
	for _, n := range names {
		rep := rt.replicas[n]
		if !rep.br.Allow() {
			continue
		}
		out = append(out, rep)
		if len(out) == maxAttempts {
			break
		}
	}
	return out
}

// refuse answers the router's 503 and counts it: every allowed replica
// failed, or none was routable. A replica's own Retry-After (a
// draining replica's 503) is relayed with msg. Without one the answer
// is the breaker view, whatever msg says: the client learns when the
// earliest breaker will re-admit a trial, rather than the router
// hanging or lying with a 200.
func (rt *Router) refuse(w http.ResponseWriter, retryAfter, msg string) {
	rt.refused.Add(1)
	if retryAfter == "" {
		const maxDur = time.Duration(1<<63 - 1)
		retry := maxDur
		for _, rep := range rt.replicas {
			if ra := rep.br.RetryAfter(); ra < retry {
				retry = ra
			}
		}
		secs := 1
		if retry > 0 && retry < maxDur {
			secs = int(retry/time.Second) + 1
		}
		retryAfter, msg = strconv.Itoa(secs), "cluster: no replica available; all circuit breakers open"
	}
	w.Header().Set("Retry-After", retryAfter)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(w).Encode(map[string]string{"error": msg}) //nolint:errcheck
}

// readBody buffers a request body up to the replicas' own size cap. On
// failure it has already answered the client.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, service.MaxBodyBytes+1))
	if err != nil {
		http.Error(w, "cluster: reading request body: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	if len(body) > service.MaxBodyBytes {
		http.Error(w, "cluster: request body too large", http.StatusRequestEntityTooLarge)
		return nil, false
	}
	return body, true
}

// handleKeyed serves /compile and /estimate: buffer the body, derive
// the routing key from the request content, and forward along the
// key's failover sequence.
func (rt *Router) handleKeyed(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	key := ""
	var req service.Request
	if json.Unmarshal(body, &req) == nil {
		// RoutingKey failures (empty or malformed QASM) leave the key
		// empty: the request is forwarded unkeyed and the replica
		// answers with its usual 400.
		key, _ = service.RoutingKey(req) //nolint:errcheck
	}
	rt.forward(w, r, key, body)
}

// failover reports whether one upstream result is a replica-level
// failure. Connection errors and 5xx fail over; 429 is the replica
// correctly enforcing a client's rate limit — failing over would let
// clients shop for a fresh bucket, so it relays as-is; all other
// statuses (2xx and client errors) relay and count as healthy.
func failover(resp *http.Response, err error) bool {
	return err != nil || resp.StatusCode >= 500
}

// do sends one copy of the request to one replica: same method, path
// and query, the end-to-end headers, and body (a buffered copy, or the
// live stream of an unbuffered relay).
func (rt *Router) do(ctx context.Context, rep *replica, r *http.Request, body io.Reader) (*http.Response, error) {
	u := rep.base.JoinPath(r.URL.Path)
	u.RawQuery = r.URL.RawQuery
	req, err := http.NewRequestWithContext(ctx, r.Method, u.String(), body)
	if err != nil {
		return nil, err
	}
	copyHeaders(req.Header, r.Header)
	// The router is the trust boundary: overwrite, never append, so a
	// client-supplied X-Forwarded-For can't spoof another's rate
	// bucket on replicas running -trust-forwarded.
	if host, _, splitErr := net.SplitHostPort(r.RemoteAddr); splitErr == nil {
		req.Header.Set(service.ForwardedForHeader, host)
	} else if r.RemoteAddr != "" {
		req.Header.Set(service.ForwardedForHeader, r.RemoteAddr)
	}
	return rt.client.Do(req)
}

// discard drains and closes a response we will not relay.
func discard(resp *http.Response) {
	if resp == nil {
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10)) //nolint:errcheck
	resp.Body.Close()
}

// fail charges one failed attempt to the replica's breaker and failure
// counter and drains its response, if any, returning the Retry-After
// the replica sent with it.
func (rep *replica) fail(resp *http.Response) (retryAfter string) {
	rep.br.Failure()
	rep.failed.Add(1)
	if resp != nil {
		retryAfter = resp.Header.Get("Retry-After")
		discard(resp)
	}
	return retryAfter
}

// forward proxies one buffered (or body-less) request along key's
// failover sequence (ring order for an empty key), optionally hedging
// the first attempt, and relays the first usable response. NDJSON
// responses are flushed chunk-by-chunk so streaming compiles pass
// through unbuffered.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, key string, body []byte) {
	ranked := rt.rankedAllowed(key)
	stream := strings.Contains(r.Header.Get("Accept"), service.NDJSONContentType)
	var sawRetryAfter string
	for i := 0; i < len(ranked); {
		rep, start := ranked[i], time.Now()
		var (
			delay    time.Duration
			hedged   bool
			resp     *http.Response
			err      error
			consumed = 1
		)
		// Hedge only the first attempt of non-streaming requests: a
		// hedged stream would race two live NDJSON feeds for one
		// client connection.
		if i == 0 && !stream && len(ranked) > 1 {
			delay, hedged = rt.hedgeDelay()
		}
		if hedged {
			// hedgedDo charges every failed candidate itself and returns a
			// relayable response on nil error.
			resp, rep, consumed, err = rt.hedgedDo(r, ranked[0], ranked[1], body, delay)
		} else if resp, err = rt.do(r.Context(), rep, r, bytes.NewReader(body)); failover(resp, err) {
			if ra := rep.fail(resp); ra != "" {
				sawRetryAfter = ra
			}
		}
		if failover(resp, err) {
			if i += consumed; i < len(ranked) {
				rt.failovers.Add(1)
				rt.logf("cluster: failing over %s %s from %s (err=%v)", r.Method, r.URL.Path, ranked[i-consumed].name, err)
			}
			continue
		}
		rt.lat.Observe(time.Since(start))
		rt.relay(w, resp, rep)
		return
	}
	// Every allowed replica failed, or none was allowed. If one of them
	// told us when to come back (a draining replica's 503 Retry-After),
	// pass that through; otherwise refuse with the breaker view.
	rt.refuse(w, sawRetryAfter, "cluster: all failover attempts exhausted")
}

// hedgeDelay reports the armed hedge trigger, if any.
func (rt *Router) hedgeDelay() (time.Duration, bool) {
	p := rt.cfg.HedgePercentile
	if p <= 0 || p >= 1 {
		return 0, false
	}
	minSamples := rt.cfg.HedgeMinSamples
	if minSamples <= 0 {
		minSamples = 32
	}
	d, n := rt.lat.Percentile(p)
	if n < minSamples || d <= 0 {
		return 0, false
	}
	return d, true
}

// hedgedDo races the primary replica against one hedge partner: the
// hedge fires only if the primary outlives delay, and the first usable
// response wins.
//
// Contract: on nil error the response is relayable and the caller owns
// its Success accounting; on non-nil error every consumed candidate's
// breaker has already been charged and `consumed` (1 or 2) tells the
// caller how far to advance its failover cursor. The losing in-flight
// attempt is cancelled and drained in the background.
func (rt *Router) hedgedDo(r *http.Request, primary, partner *replica, body []byte, delay time.Duration) (*http.Response, *replica, int, error) {
	type result struct {
		resp *http.Response
		err  error
		rep  *replica
	}
	base := r.Context()
	ctx1, cancel1 := context.WithCancel(base)
	cancels := []context.CancelFunc{cancel1}
	cancelAll := func() {
		for _, c := range cancels {
			c()
		}
	}
	ch := make(chan result, 2)
	launch := func(ctx context.Context, rep *replica) {
		resp, err := rt.do(ctx, rep, r, bytes.NewReader(body))
		ch <- result{resp, err, rep}
	}
	go launch(ctx1, primary)

	timer := time.NewTimer(delay)
	defer timer.Stop()
	fired := false
	pending := 1
	for {
		select {
		case <-timer.C:
			if !fired {
				fired = true
				pending++
				rt.hedges.Add(1)
				ctx2, cancel2 := context.WithCancel(base)
				cancels = append(cancels, cancel2)
				go launch(ctx2, partner)
			}
		case res := <-ch:
			pending--
			if !failover(res.resp, res.err) {
				// Winner. Reap the loser in the background.
				if n := pending; n > 0 {
					go func() {
						for j := 0; j < n; j++ {
							discard((<-ch).resp)
						}
						cancelAll()
					}()
					if res.rep == primary && len(cancels) > 1 {
						cancels[1]()
					} else if res.rep != primary {
						cancel1()
					}
				} else {
					cancelAll()
				}
				consumed := 1
				if fired {
					consumed = 2
				}
				return res.resp, res.rep, consumed, nil
			}
			// A failed candidate: charge it now, keep waiting if the
			// other attempt is still in flight.
			res.rep.fail(res.resp)
			if pending > 0 {
				continue
			}
			cancelAll()
			if fired {
				return nil, nil, 2, fmt.Errorf("cluster: hedged attempts to %s and %s both failed", primary.name, partner.name)
			}
			// Primary failed before the hedge armed: don't burn the
			// partner here — the ordinary failover loop tries it next
			// with full accounting.
			return nil, nil, 1, fmt.Errorf("cluster: primary %s failed before hedge fired", primary.name)
		}
	}
}

// copyHeaders copies end-to-end headers, dropping hop-by-hop ones.
func copyHeaders(dst, src http.Header) {
	for k, vv := range src {
		switch http.CanonicalHeaderKey(k) {
		case "Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
			"Te", "Trailer", "Transfer-Encoding", "Upgrade":
			continue
		}
		for _, v := range vv {
			dst.Add(k, v)
		}
	}
}

// relay books one usable upstream response (breaker success, served
// and forwarded counters) and copies it to the client, flushing per
// chunk when the payload is a stream.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, rep *replica) {
	defer resp.Body.Close()
	rep.br.Success()
	rep.served.Add(1)
	rt.forwarded.Add(1)
	copyHeaders(w.Header(), resp.Header)
	w.Header().Set(ReplicaHeader, rep.name)
	w.WriteHeader(resp.StatusCode)
	flushEach := strings.Contains(resp.Header.Get("Content-Type"), service.NDJSONContentType)
	rc := http.NewResponseController(w)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flushEach {
				rc.Flush() //nolint:errcheck // dead client surfaces on the next write
			}
		}
		if err != nil {
			return
		}
	}
}
