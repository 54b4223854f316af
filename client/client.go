// Package client is the Go client for the surfcommd compile service:
// a thin HTTP/JSON wrapper with the retry discipline the serving
// layer's overload contract expects. Shed requests (429 from the
// per-client rate limiter, 503 from admission control, shutdown, or
// injected chaos) are retried with context-aware exponential backoff
// plus jitter, honoring the server's Retry-After estimate when it is
// longer than the computed backoff; client errors (4xx other than 429)
// are never retried — a bad request does not get better with patience.
// A context deadline is forwarded to the server in the
// X-Request-Deadline header, so the service can shed the request on
// arrival (or abandon it in the queue) instead of compiling work the
// client has already given up on.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"surfcomm/internal/service"
)

// Default retry tuning: four attempts spanning roughly 0.1–2s of
// backoff keeps transient sheds invisible to callers without turning a
// real outage into a hot loop.
const (
	DefaultMaxAttempts = 4
	DefaultBaseDelay   = 100 * time.Millisecond
	DefaultMaxDelay    = 5 * time.Second
)

// Client talks to one surfcommd base URL. It is safe for concurrent
// use.
type Client struct {
	base        string
	hc          *http.Client
	apiKey      string
	maxAttempts int
	baseDelay   time.Duration
	maxDelay    time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (default http.DefaultClient).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithAPIKey sends the key in X-API-Key, which is also the server's
// rate-limit bucket key — one tenant shares one bucket across machines.
func WithAPIKey(key string) Option { return func(c *Client) { c.apiKey = key } }

// WithRetry tunes the retry loop: total attempts (1 disables retries)
// and the base/cap of the exponential backoff.
func WithRetry(maxAttempts int, baseDelay, maxDelay time.Duration) Option {
	return func(c *Client) {
		if maxAttempts > 0 {
			c.maxAttempts = maxAttempts
		}
		if baseDelay > 0 {
			c.baseDelay = baseDelay
		}
		if maxDelay > 0 {
			c.maxDelay = maxDelay
		}
	}
}

// WithJitterSeed seeds the backoff jitter (tests pin schedules with
// it; production keeps the default time-seeded source).
func WithJitterSeed(seed int64) Option {
	return func(c *Client) { c.rng = rand.New(rand.NewSource(seed)) }
}

// New returns a client for the service at baseURL (e.g.
// "http://localhost:8723").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:        strings.TrimRight(baseURL, "/"),
		hc:          http.DefaultClient,
		maxAttempts: DefaultMaxAttempts,
		baseDelay:   DefaultBaseDelay,
		maxDelay:    DefaultMaxDelay,
		rng:         rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// StatusError is a non-2xx reply that exhausted (or was exempt from)
// retries.
type StatusError struct {
	// Code is the final HTTP status; Body is the server's error text.
	Code int
	Body string
	// RetryAfter is the server's Retry-After estimate (zero when the
	// reply carried none).
	RetryAfter time.Duration
	// Attempts is how many requests were sent before giving up.
	Attempts int
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("surfcommd: HTTP %d after %d attempt(s): %s", e.Code, e.Attempts, e.Body)
}

// IsRetryable reports whether a status is worth retrying: 429 (rate
// limited) and 503 (shed, draining, or chaos) are explicit
// try-again-later signals; everything else is final.
func IsRetryable(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// Compile submits one request, retrying sheds.
func (c *Client) Compile(ctx context.Context, req service.Request) (service.CompileResponse, error) {
	var out service.CompileResponse
	err := c.do(ctx, http.MethodPost, "/compile", req, &out)
	return out, err
}

// CompileBatch submits a batch; per-slot failures come back in the
// slots, transport-level sheds are retried whole (identical slots
// dedupe server-side, so a retried batch recompiles nothing that
// already landed in the cache).
func (c *Client) CompileBatch(ctx context.Context, reqs []service.Request) ([]service.CompileResponse, error) {
	var out []service.CompileResponse
	err := c.do(ctx, http.MethodPost, "/batch", reqs, &out)
	return out, err
}

// Estimate runs the frontend characterization for a QASM circuit.
func (c *Client) Estimate(ctx context.Context, qasm string) (service.EstimateResponse, error) {
	var out service.EstimateResponse
	err := c.do(ctx, http.MethodPost, "/estimate", service.Request{QASM: qasm}, &out)
	return out, err
}

// Models fetches the characterized reference application suite.
func (c *Client) Models(ctx context.Context) ([]service.ModelResponse, error) {
	var out []service.ModelResponse
	err := c.do(ctx, http.MethodGet, "/models", nil, &out)
	return out, err
}

// Health fetches the liveness + counters snapshot.
func (c *Client) Health(ctx context.Context) (service.HealthResponse, error) {
	var out service.HealthResponse
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &out)
	return out, err
}

// Ready probes /readyz once (no retries — readiness is a point-in-time
// routing question): nil when the server wants traffic, a StatusError
// carrying the reason when draining or overloaded.
func (c *Client) Ready(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &StatusError{Code: resp.StatusCode, Body: strings.TrimSpace(string(body)), Attempts: 1}
	}
	return nil
}

// do runs the retry loop: send, classify, back off, repeat. The
// context bounds the whole exchange including backoff sleeps.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var payload []byte
	if in != nil {
		var err error
		if payload, err = json.Marshal(in); err != nil {
			return err
		}
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return fmt.Errorf("%w (context ended: %v)", lastErr, err)
			}
			return err
		}
		serr, body, err := c.send(ctx, method, path, payload, attempt)
		switch {
		case err != nil:
			// Transport-level failure (connection refused mid-restart,
			// reset under load): retryable.
			lastErr = err
		case serr == nil:
			if out == nil {
				return nil
			}
			return json.Unmarshal(body, out)
		default:
			lastErr = serr
			if !IsRetryable(serr.Code) {
				return lastErr
			}
		}
		if attempt >= c.maxAttempts {
			return lastErr
		}
		delay := c.backoff(attempt)
		var se *StatusError
		if errors.As(lastErr, &se) && se.RetryAfter > delay {
			delay = se.RetryAfter
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return fmt.Errorf("%w (context ended during backoff: %v)", lastErr, ctx.Err())
		}
	}
}

// send performs one HTTP exchange, forwarding the API key and the
// remaining context budget as X-Request-Deadline. A 2xx returns
// (nil, body, nil); a non-2xx returns the StatusError (with the
// server's Retry-After parsed in); transport failures return err.
func (c *Client) send(ctx context.Context, method, path string, payload []byte, attempt int) (*StatusError, []byte, error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.apiKey != "" {
		req.Header.Set("X-API-Key", c.apiKey)
	}
	if dl, ok := ctx.Deadline(); ok {
		if remain := time.Until(dl); remain > 0 {
			req.Header.Set(service.DeadlineHeader, remain.Round(time.Millisecond).String())
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, service.MaxBodyBytes))
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return nil, data, nil
	}
	serr := &StatusError{
		Code:     resp.StatusCode,
		Body:     strings.TrimSpace(string(data)),
		Attempts: attempt,
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		serr.RetryAfter = parseRetryAfter(ra, time.Now())
	}
	return serr, nil, nil
}

// maxDuration is the largest time.Duration.
const maxDuration = time.Duration(math.MaxInt64)

// parseRetryAfter reads both RFC 7231 Retry-After forms: delta-seconds
// ("3") and HTTP-date ("Fri, 08 Aug 2026 17:30:00 GMT" — what real
// proxies and CDNs in front of the fleet rewrite the header to).
// Unparseable values and dates already in the past yield zero, which
// the retry loop treats as "no server hint". A delay too long for a
// Duration saturates at the largest one; it never wraps.
func parseRetryAfter(ra string, now time.Time) time.Duration {
	// On overflow ParseInt returns the int64 bound of the value's sign.
	if secs, err := strconv.ParseInt(ra, 10, 64); err == nil || errors.Is(err, strconv.ErrRange) {
		switch {
		case secs <= 0:
			return 0
		case secs > int64(maxDuration/time.Second):
			return maxDuration
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(ra); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// backoff computes the attempt's exponential delay with full jitter in
// [delay/2, delay): herds that shed together must not retry together.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.baseDelay << (attempt - 1)
	if d > c.maxDelay || d <= 0 {
		d = c.maxDelay
	}
	c.mu.Lock()
	f := 0.5 + 0.5*c.rng.Float64()
	c.mu.Unlock()
	return time.Duration(float64(d) * f)
}
