package service_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"surfcomm"
	"surfcomm/internal/service"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(service.NewHandler(newService(t, service.Config{})))
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	payload, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestHealthz(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var health service.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Errorf("status = %q, want ok", health.Status)
	}
	if health.Cache.MaxEntries != service.DefaultMaxEntries {
		t.Errorf("cache bound = %d, want %d", health.Cache.MaxEntries, service.DefaultMaxEntries)
	}
}

// TestCompileEndpointCaches drives the serving loop over HTTP: a fresh
// compile, then the identical request answered from the cache with the
// same plan.
func TestCompileEndpointCaches(t *testing.T) {
	srv := newTestServer(t)
	req := service.Request{QASM: testQASM(t), Backend: "braid"}

	status, body := postJSON(t, srv.URL+"/compile", req)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	var first service.CompileResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Plan == nil || first.Plan.Cycles <= 0 {
		t.Fatalf("first compile: cached=%v plan=%+v", first.Cached, first.Plan)
	}

	status, body = postJSON(t, srv.URL+"/compile", req)
	if status != http.StatusOK {
		t.Fatalf("repeat status = %d: %s", status, body)
	}
	var second service.CompileResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("repeat request should report cached=true")
	}
	if *second.Plan != *first.Plan {
		t.Errorf("cached plan differs: %+v vs %+v", second.Plan, first.Plan)
	}
	if second.Digest != first.Digest {
		t.Errorf("digests differ: %s vs %s", second.Digest, first.Digest)
	}
}

// TestCompileEndpointBadRequests pins the HTTP 400 contract for every
// malformed-request class, including JSON typos (unknown fields).
func TestCompileEndpointBadRequests(t *testing.T) {
	srv := newTestServer(t)
	cases := map[string]any{
		"empty qasm":      service.Request{Backend: "braid"},
		"garbage qasm":    service.Request{QASM: "qubits banana"},
		"unknown backend": service.Request{QASM: testQASM(t), Backend: "nope"},
		"negative n":      service.Request{QASM: "# bad\nqubits -1\n"},
		"unknown field":   map[string]any{"qasm": testQASM(t), "distnace": 7},
	}
	t.Run("oversized batch", func(t *testing.T) {
		reqs := make([]service.Request, service.MaxBatchRequests+1)
		for i := range reqs {
			reqs[i] = service.Request{QASM: "# x\nqubits 1\nh q0\n"}
		}
		status, body := postJSON(t, srv.URL+"/batch", reqs)
		if status != http.StatusBadRequest {
			t.Errorf("status = %d, want 400 (%.120s)", status, body)
		}
	})
	t.Run("oversized body is 413", func(t *testing.T) {
		body := `{"qasm": "` + strings.Repeat("x", service.MaxBodyBytes) + `"}`
		resp, err := http.Post(srv.URL+"/compile", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("status = %d, want 413 for oversized body", resp.StatusCode)
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		body := `{"qasm": "x"}{"backend": "bogus"}`
		resp, err := http.Post(srv.URL+"/compile", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400 for concatenated bodies", resp.StatusCode)
		}
	})
	for name, req := range cases {
		t.Run(name, func(t *testing.T) {
			status, body := postJSON(t, srv.URL+"/compile", req)
			if status != http.StatusBadRequest {
				t.Errorf("status = %d, want 400 (%s)", status, body)
			}
			var e map[string]string
			if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
				t.Errorf("expected JSON error body, got %s", body)
			}
		})
	}
}

// TestBatchEndpointMixedResults pins per-slot error isolation over
// HTTP: a failing request occupies its slot without failing the batch.
func TestBatchEndpointMixedResults(t *testing.T) {
	srv := newTestServer(t)
	qasm := testQASM(t)
	status, body := postJSON(t, srv.URL+"/batch", []service.Request{
		{QASM: qasm, Backend: "braid"},
		{QASM: qasm, Backend: "nope"},
		{QASM: qasm, Backend: "planar"},
	})
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	var out []service.CompileResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d slots, want 3", len(out))
	}
	if out[0].Plan == nil || out[0].Plan.Backend != "braid" {
		t.Errorf("slot 0 = %+v, want braid plan", out[0])
	}
	if out[1].Error == "" || !strings.Contains(out[1].Error, "bad config") {
		t.Errorf("slot 1 error = %q, want bad-config failure", out[1].Error)
	}
	if out[2].Plan == nil || out[2].Plan.Backend != "planar" {
		t.Errorf("slot 2 = %+v, want planar plan", out[2])
	}
}

func TestEstimateEndpoint(t *testing.T) {
	srv := newTestServer(t)
	status, body := postJSON(t, srv.URL+"/estimate", service.Request{QASM: testQASM(t)})
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	var est service.EstimateResponse
	if err := json.Unmarshal(body, &est); err != nil {
		t.Fatal(err)
	}
	circ, err := surfcomm.NewGSE(surfcomm.GSEConfig{M: 8, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := surfcomm.EstimateCircuit(circ)
	if err != nil {
		t.Fatal(err)
	}
	if est.LogicalOps != want.LogicalOps || est.LogicalQubits != want.LogicalQubits {
		t.Errorf("estimate = %+v, want ops=%d qubits=%d", est, want.LogicalOps, want.LogicalQubits)
	}
}

func TestModelsEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("reference characterization is slow")
	}
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var models []service.ModelResponse
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	if len(models) == 0 {
		t.Fatal("no models returned")
	}
	names := make(map[string]bool, len(models))
	for _, m := range models {
		names[m.Name] = true
		if m.Parallelism <= 0 {
			t.Errorf("%s: parallelism %g, want > 0", m.Name, m.Parallelism)
		}
	}
	if !names["GSE"] {
		t.Errorf("reference suite missing GSE: %v", names)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/compile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /compile status = %d, want 405", resp.StatusCode)
	}
}

// TestReadyzFlipsOnDrain pins the probe split over HTTP: /readyz
// answers 200 while serving and 503 with Retry-After once the service
// drains, while /healthz keeps reporting liveness (with the drain
// flag) throughout.
func TestReadyzFlipsOnDrain(t *testing.T) {
	svc := newService(t, service.Config{})
	srv := httptest.NewServer(service.NewHandler(svc))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz while serving = %d, want 200", resp.StatusCode)
	}

	svc.Drain()
	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("/readyz 503 missing Retry-After")
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while draining = %d, want 200 (liveness != readiness)", resp.StatusCode)
	}
	var health service.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if !health.Draining {
		t.Fatal("/healthz does not report draining")
	}
	if health.Admission.Workers < 1 || health.Admission.QueueLimit != service.DefaultQueueDepth {
		t.Fatalf("admission snapshot = %+v, want workers >= 1, default queue limit", health.Admission)
	}
}

// TestMalformedDeadlineHeaderIs400 pins the header contract: a
// deadline the server cannot parse is the client's error, answered
// before any compile work.
func TestMalformedDeadlineHeaderIs400(t *testing.T) {
	srv := newTestServer(t)
	payload, err := json.Marshal(service.Request{QASM: testQASM(t)})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"soon", "-5s", "2006-13-45T99:99:99Z"} {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/compile", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(service.DeadlineHeader, bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("deadline %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestDeadlineHeaderHonored pins the happy path: a generous duration
// deadline passes through and the request still compiles.
func TestDeadlineHeaderHonored(t *testing.T) {
	srv := newTestServer(t)
	payload, err := json.Marshal(service.Request{QASM: testQASM(t)})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/compile", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.DeadlineHeader, "30s")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var cr service.CompileResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.Plan == nil {
		t.Fatal("no plan in response")
	}
}
