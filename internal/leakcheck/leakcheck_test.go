package leakcheck

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestReportsUnclosedServer shows the check bites: an httptest.Server
// left open is reported with its accept loop's stack, and once closed
// nothing is reported.
func TestReportsUnclosedServer(t *testing.T) {
	before := snapshot()
	srv := httptest.NewServer(http.NotFoundHandler())
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	leaked := leakedSince(before, 100*time.Millisecond)
	if !strings.Contains(strings.Join(leaked, "\n"), "net/http.(*Server).Serve") {
		t.Errorf("open server not reported; leaked stacks:\n%s", strings.Join(leaked, "\n\n"))
	}
	srv.Close()
	if leaked := leakedSince(before, grace); len(leaked) > 0 {
		t.Errorf("closed server still reported:\n%s", strings.Join(leaked, "\n\n"))
	}
}

// TestReportsStuckGoroutine checks that a goroutine blocked past the
// grace period is reported, and one that exits within it is not.
func TestReportsStuckGoroutine(t *testing.T) {
	before := snapshot()
	stop := make(chan struct{})
	go func() { <-stop }()
	if leaked := leakedSince(before, 50*time.Millisecond); len(leaked) != 1 {
		t.Fatalf("blocked goroutine: %d stacks reported, want 1", len(leaked))
	}
	close(stop)
	if leaked := leakedSince(before, grace); len(leaked) != 0 {
		t.Fatalf("exited goroutine still reported:\n%s", strings.Join(leaked, "\n\n"))
	}
}

func TestMain(m *testing.M) { Main(m) }
