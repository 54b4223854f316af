package client

import (
	"testing"
	"time"
)

// FuzzParseRetryAfter feeds arbitrary Retry-After header values, which
// any server or proxy in front of the fleet may send, through the
// client's parser: every value must read as a non-negative delay (zero
// meaning no hint) without panicking. The seed corpus lives in
// testdata/fuzz/FuzzParseRetryAfter.
func FuzzParseRetryAfter(f *testing.F) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, ra string) {
		if d := parseRetryAfter(ra, now); d < 0 {
			t.Fatalf("parseRetryAfter(%q) = %v, want a non-negative delay", ra, d)
		}
	})
}
