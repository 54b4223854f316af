package client_test

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"surfcomm/client"
	"surfcomm/internal/service"
)

func TestParseRetryAfterForms(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		ra   string
		want time.Duration
	}{
		{"delta seconds", "3", 3 * time.Second},
		{"zero delta", "0", 0},
		{"negative delta", "-5", 0},
		{"http date future", now.Add(90 * time.Second).UTC().Format(http.TimeFormat), 90 * time.Second},
		{"http date past", now.Add(-time.Minute).UTC().Format(http.TimeFormat), 0},
		{"rfc850 date", now.Add(30 * time.Second).UTC().Format("Monday, 02-Jan-06 15:04:05 GMT"), 30 * time.Second},
		{"garbage", "soon", 0},
		{"empty", "", 0},
		{"largest whole delta", "9223372036", 9223372036 * time.Second},
		{"delta past the largest duration", "9223372037", math.MaxInt64},
		{"delta that wrapped negative", "18446744073", math.MaxInt64},
		{"delta that wrapped positive", "99999999999", math.MaxInt64},
		{"delta past int64", "99999999999999999999", math.MaxInt64},
	}
	for _, tc := range cases {
		if got := client.ParseRetryAfter(tc.ra, now); got != tc.want {
			t.Errorf("%s: parseRetryAfter(%q) = %v, want %v", tc.name, tc.ra, got, tc.want)
		}
	}
}

// TestHonorsRetryAfterDate pins the satellite fix: a date-form
// Retry-After (what real proxies and CDNs rewrite the header to) must
// stretch the backoff exactly like the delta-seconds form instead of
// being silently dropped.
func TestHonorsRetryAfterDate(t *testing.T) {
	var mu sync.Mutex
	var last time.Time
	var gap time.Duration
	calls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		now := time.Now()
		if calls == 2 {
			gap = now.Sub(last)
		}
		last = now
		n := calls
		mu.Unlock()
		if n == 1 {
			w.Header().Set("Retry-After", time.Now().Add(1500*time.Millisecond).UTC().Format(http.TimeFormat))
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"plan":{"backend":"braid","cycles":1}}`))
	}))
	defer srv.Close()

	// Backoff alone would retry within ~10ms; the date a second and a
	// half out must hold the retry back (HTTP dates have one-second
	// granularity, so allow for truncation).
	c := client.New(srv.URL, fastRetry(3), client.WithJitterSeed(1))
	if _, err := c.Compile(context.Background(), service.Request{QASM: "x"}); err != nil {
		t.Fatalf("Compile: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if gap < 500*time.Millisecond {
		t.Fatalf("retry gap %v, want >= 500ms from the date-form Retry-After", gap)
	}
}
