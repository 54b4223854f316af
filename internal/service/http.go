package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"surfcomm"
	"surfcomm/internal/faultinject"
	"surfcomm/internal/scerr"
	"surfcomm/internal/store"
)

// errBodyTooLarge classifies a request body over MaxBodyBytes; it maps
// to 413 so clients keying retry/split behavior on the status can tell
// "too big" from "malformed".
var errBodyTooLarge = errors.New("service: request body exceeds the size cap")

// PlanSummary is the JSON view of a compiled plan: the schedule and
// footprint metrics without the backend-specific artifacts (schedules
// and move lists stay server-side in the cache). It is both the wire
// form of a plan and the form the disk store persists.
//
// Field order is load-bearing: encoding/json emits struct fields in
// declaration order, which (with Go's shortest-float formatting) makes
// the encoding deterministic — a recompiled plan persists
// byte-identically, the property the crash-recovery tests pin.
type PlanSummary struct {
	Backend        string  `json:"backend"`
	Circuit        string  `json:"circuit"`
	Distance       int     `json:"distance"`
	Seed           int64   `json:"seed"`
	Device         string  `json:"device"`
	Cycles         int64   `json:"cycles"`
	Seconds        float64 `json:"seconds"`
	PhysicalQubits float64 `json:"physical_qubits"`
	CommOps        int64   `json:"comm_ops"`
}

// Summarize projects a plan to its JSON view.
func Summarize(p surfcomm.Plan) PlanSummary {
	return PlanSummary{
		Backend:        p.Backend,
		Circuit:        p.Circuit,
		Distance:       p.Distance,
		Seed:           p.Seed,
		Device:         p.Device,
		Cycles:         p.Cycles,
		Seconds:        p.Seconds,
		PhysicalQubits: p.PhysicalQubits,
		CommOps:        p.CommOps,
	}
}

// CompileResponse is the /compile reply (and one /batch slot).
type CompileResponse struct {
	Plan *PlanSummary `json:"plan,omitempty"`
	// Cached reports whether the plan came from the cache or a deduped
	// in-flight compile — bit-identical to a fresh compile either way.
	Cached bool   `json:"cached"`
	Digest string `json:"digest,omitempty"`
	Error  string `json:"error,omitempty"`
}

// compileResponse projects one served compile onto the wire: the plan
// summary on success, the error text in its place on failure.
func compileResponse(res Result) CompileResponse {
	out := CompileResponse{Cached: res.Cached, Digest: res.Digest}
	if res.Err != nil {
		out.Error = res.Err.Error()
		return out
	}
	plan := Summarize(res.Plan)
	out.Plan = &plan
	return out
}

// EstimateResponse is the /estimate reply (the Table 2 columns).
type EstimateResponse struct {
	Name          string  `json:"name"`
	LogicalQubits int     `json:"logical_qubits"`
	LogicalOps    int     `json:"logical_ops"`
	TCount        int     `json:"t_count"`
	TwoQubitOps   int     `json:"two_qubit_ops"`
	CriticalPath  int     `json:"critical_path"`
	Parallelism   float64 `json:"parallelism"`
}

// ModelResponse is one characterized application in the /models reply.
type ModelResponse struct {
	Name         string  `json:"name"`
	Parallelism  float64 `json:"parallelism"`
	MoveFraction float64 `json:"move_fraction"`
	CongestionDD float64 `json:"congestion_dd"`
}

// CalibrationHealth is the /healthz view of the service's startup
// calibration snapshot: the content digest (compared across a replica
// fleet to detect divergent calibrations) and the snapshot's age.
type CalibrationHealth struct {
	Name       string  `json:"name"`
	Digest     string  `json:"digest"`
	AgeSeconds float64 `json:"age_seconds"`
}

// HealthResponse is the /healthz reply: liveness plus the cache,
// admission, store, and chaos counters operators watch. /healthz is
// pure liveness — it answers 200 even while draining or overloaded;
// /readyz is the routing signal.
type HealthResponse struct {
	Status        string             `json:"status"`
	UptimeSeconds float64            `json:"uptime_seconds"`
	Workers       int                `json:"workers"`
	Draining      bool               `json:"draining"`
	Cache         CacheStats         `json:"cache"`
	Admission     AdmissionStats     `json:"admission"`
	Decode        DecodeStats        `json:"decode"`
	Store         *store.Stats       `json:"store,omitempty"`
	Faults        map[string]uint64  `json:"faults,omitempty"`
	Calibration   *CalibrationHealth `json:"calibration,omitempty"`
}

// httpStatus maps pipeline sentinel errors to HTTP statuses: bad
// configs are the client's fault (400), unroutable devices are a valid
// request the fabric cannot satisfy (422), cancellations and shed or
// chaos-failed requests are retryable server conditions (503 — typed
// OverloadErrors refine rate limits to 429), anything else is a server
// error.
func httpStatus(err error) int {
	var oe *OverloadError
	switch {
	case errors.As(err, &oe):
		return oe.Status
	case errors.Is(err, errBodyTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, scerr.ErrBadConfig):
		return http.StatusBadRequest
	case errors.Is(err, scerr.ErrUnknownModel):
		return http.StatusNotFound
	case errors.Is(err, scerr.ErrUnroutable):
		return http.StatusUnprocessableEntity
	case errors.Is(err, scerr.ErrCanceled),
		errors.Is(err, scerr.ErrOverloaded),
		errors.Is(err, faultinject.ErrInjected):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // headers are out; nothing left to report
}

func writeErr(w http.ResponseWriter, err error) {
	status := httpStatus(err)
	// Every retryable refusal carries an honest Retry-After: typed
	// overload errors know their queue-drain / token-refill estimate;
	// other 503s (shutdown, injected faults) suggest an immediate-ish
	// retry against another replica.
	var oe *OverloadError
	if errors.As(err, &oe) {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(oe.RetryAfter)))
	} else if status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// retryAfterSeconds rounds a hint up to whole seconds (the header's
// granularity), minimum 1 — "Retry-After: 0" is an invitation to storm.
func retryAfterSeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// MaxBodyBytes caps a request body: big enough for any benchmark-suite
// QASM batch, small enough that one client cannot exhaust daemon
// memory.
const MaxBodyBytes = 16 << 20

// MaxBatchRequests caps one /batch call; bigger workloads should be
// split so the pool interleaves fairly between clients.
const MaxBatchRequests = 1024

// decodeJSON decodes a size-capped request body, rejecting trailing
// garbage and unknown fields so client typos surface as 400s instead
// of silently compiling the default target.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return fmt.Errorf("%w (%d bytes max)", errBodyTooLarge, mbe.Limit)
		}
		return scerr.BadConfig("service: body: %v", err)
	}
	if dec.More() {
		return scerr.BadConfig("service: body: trailing data after JSON value")
	}
	return nil
}

// DeadlineHeader is the request header carrying the client's compile
// deadline: a Go duration ("1.5s") or an absolute RFC 3339 instant.
// The handler rederives it as a context deadline, so it is honored
// end-to-end — shed on arrival when the queue cannot meet it, answered
// 503 without compiling when it expires in the queue, and canceled
// mid-compile through the ErrCanceled plumbing when it passes.
const DeadlineHeader = "X-Request-Deadline"

// withRequestDeadline installs the DeadlineHeader as a context
// deadline; malformed values are a 400, not a silent infinite budget.
func withRequestDeadline(w http.ResponseWriter, r *http.Request) (*http.Request, context.CancelFunc, bool) {
	hv := r.Header.Get(DeadlineHeader)
	if hv == "" {
		return r, func() {}, true
	}
	deadline, err := parseRequestDeadline(hv, time.Now())
	if err != nil {
		writeErr(w, err)
		return nil, nil, false
	}
	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	return r.WithContext(ctx), cancel, true
}

// parseRequestDeadline reads a DeadlineHeader value received at now: a
// positive Go duration counts from now, an RFC 3339 time is absolute.
// Anything else is an error matching ErrBadConfig.
func parseRequestDeadline(hv string, now time.Time) (time.Time, error) {
	if d, err := time.ParseDuration(hv); err == nil && d > 0 {
		return now.Add(d), nil
	}
	if t, err := time.Parse(time.RFC3339Nano, hv); err == nil {
		return t, nil
	}
	return time.Time{}, scerr.BadConfig("service: bad %s %q (want a positive Go duration or an RFC 3339 time)",
		DeadlineHeader, hv)
}

// NewHandler mounts the serving endpoints:
//
//	POST /compile   one Request        -> CompileResponse
//	                (Accept: application/x-ndjson streams stage events
//	                 then the final CompileResponse — see stream.go)
//	POST /batch     []Request          -> []CompileResponse
//	POST /decode    NDJSON stream      -> NDJSON stream (see decode.go)
//	POST /estimate  Request (qasm)     -> EstimateResponse
//	GET  /models    -                  -> []ModelResponse
//	GET  /healthz   -                  -> HealthResponse (liveness; always 200)
//	GET  /readyz    -                  -> 200 ready / 503 draining or overloaded
//
// The compile endpoints sit behind the service's per-client rate
// limiter (keyed by ClientKey; a batch costs its slot count) and honor
// the X-Request-Deadline header. The request context governs each
// caller's wait (and, with caching disabled, its private compile);
// cache-shared compiles run under the service's base context, so a
// dropped client never cancels work other requests are latched onto
// while a server shutdown still aborts everything through the
// pipeline's ErrCanceled plumbing.
func NewHandler(s *Service) http.Handler {
	start := time.Now()
	mux := http.NewServeMux()

	mux.HandleFunc("POST /compile", func(w http.ResponseWriter, r *http.Request) {
		if err := s.AllowClient(s.ClientKeyFor(r), 1); err != nil {
			writeErr(w, err)
			return
		}
		r, cancel, ok := withRequestDeadline(w, r)
		if !ok {
			return
		}
		defer cancel()
		var req Request
		if err := decodeJSON(w, r, &req); err != nil {
			writeErr(w, err)
			return
		}
		if wantsNDJSON(r) {
			streamCompile(s, w, r, req)
			return
		}
		res, err := s.Compile(r.Context(), req)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, compileResponse(res))
	})

	mux.HandleFunc("POST /batch", func(w http.ResponseWriter, r *http.Request) {
		r, cancel, ok := withRequestDeadline(w, r)
		if !ok {
			return
		}
		defer cancel()
		var reqs []Request
		if err := decodeJSON(w, r, &reqs); err != nil {
			writeErr(w, err)
			return
		}
		if len(reqs) > MaxBatchRequests {
			writeErr(w, scerr.BadConfig("service: batch of %d exceeds the %d-request cap; split it",
				len(reqs), MaxBatchRequests))
			return
		}
		// A batch spends one token per slot: batching amortizes HTTP
		// overhead, not a client's fair share of the compile pool.
		if err := s.AllowClient(s.ClientKeyFor(r), len(reqs)); err != nil {
			writeErr(w, err)
			return
		}
		results := s.CompileBatch(r.Context(), reqs)
		out := make([]CompileResponse, len(results))
		for i, res := range results {
			out[i] = compileResponse(res)
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("POST /estimate", func(w http.ResponseWriter, r *http.Request) {
		if err := s.AllowClient(s.ClientKeyFor(r), 1); err != nil {
			writeErr(w, err)
			return
		}
		var req Request
		if err := decodeJSON(w, r, &req); err != nil {
			writeErr(w, err)
			return
		}
		est, err := s.Estimate(req)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, EstimateResponse{
			Name:          est.Name,
			LogicalQubits: est.LogicalQubits,
			LogicalOps:    est.LogicalOps,
			TCount:        est.TCount,
			TwoQubitOps:   est.TwoQubitOps,
			CriticalPath:  est.CriticalPath,
			Parallelism:   est.Parallelism,
		})
	})

	mux.HandleFunc("POST /decode", handleDecode(s))

	mux.HandleFunc("GET /models", func(w http.ResponseWriter, r *http.Request) {
		models, err := s.Models(r.Context())
		if err != nil {
			writeErr(w, err)
			return
		}
		out := make([]ModelResponse, len(models))
		for i, m := range models {
			out[i] = ModelResponse{
				Name:         m.Name,
				Parallelism:  m.Parallelism,
				MoveFraction: m.MoveFraction,
				CongestionDD: m.CongestionDD,
			}
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		_, reason := s.Ready()
		writeJSON(w, http.StatusOK, HealthResponse{
			Status:        "ok",
			UptimeSeconds: time.Since(start).Seconds(),
			Workers:       s.workers,
			Draining:      reason == "draining",
			Cache:         s.Stats(),
			Admission:     s.AdmissionStats(),
			Decode:        s.DecodeStats(),
			Store:         s.StoreStats(),
			Faults:        s.FaultCounts(),
			Calibration:   s.CalibrationHealth(time.Now()),
		})
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		ready, reason := s.Ready()
		if !ready {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": reason})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": reason})
	})

	return mux
}
