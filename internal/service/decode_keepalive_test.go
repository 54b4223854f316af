package service_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"surfcomm/client"
	"surfcomm/internal/cluster"
	"surfcomm/internal/service"
)

// lockedLog is an http.Server ErrorLog sink safe for the server's
// concurrent connection goroutines.
type lockedLog struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (l *lockedLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *lockedLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// loggedServer starts h behind an httptest server whose error log (where
// net/http reports recovered handler and connection panics) is captured.
func loggedServer(t *testing.T, h http.Handler) (*httptest.Server, *lockedLog) {
	t.Helper()
	sink := &lockedLog{}
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ErrorLog = log.New(sink, "", 0)
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, sink
}

// decodeBackToBack opens n short /decode sessions one after another
// through a single keep-alive client, the pattern under which a reused
// connection's next request raced the previous session's body reader.
// A watchdog turns a wedged session into a failure instead of a hang.
func decodeBackToBack(t *testing.T, url string, n int) {
	t.Helper()
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	c := client.New(url, client.WithHTTPClient(&http.Client{Transport: transport}))
	session := func(i int) error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ds, err := c.DecodeStream(ctx, service.DecodeStart{Distance: 3, Window: 1, Strategy: "unionfind"})
		if err != nil {
			return fmt.Errorf("session %d: open: %w", i, err)
		}
		defer ds.Close()
		for r := 0; r < 2; r++ {
			if err := ds.Send(make([]bool, ds.Ack().Checks)); err != nil {
				return fmt.Errorf("session %d: send: %w", i, err)
			}
		}
		if err := ds.CloseSend(); err != nil {
			return fmt.Errorf("session %d: close send: %w", i, err)
		}
		for {
			if _, err := ds.Next(); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				return fmt.Errorf("session %d: next: %w", i, err)
			}
		}
		if sum, ok := ds.Summary(); !ok || sum.Rounds != 2 {
			return fmt.Errorf("session %d: summary %+v ok=%t", i, sum, ok)
		}
		return nil
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := session(i); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("%d back-to-back decode sessions still running after 60s", n)
	}
}

// assertNoServePanic fails if a server logged a recovered panic.
func assertNoServePanic(t *testing.T, who string, sink *lockedLog) {
	t.Helper()
	if out := sink.String(); strings.Contains(out, "invalid concurrent Body.Read") || strings.Contains(out, "panic") {
		t.Errorf("%s logged a panic:\n%s", who, out)
	}
}

// TestDecodeKeepAliveDirect: back-to-back sessions on one keep-alive
// client all complete, and the daemon never panics reading the next
// request on a reused connection.
func TestDecodeKeepAliveDirect(t *testing.T) {
	srv, sink := loggedServer(t, service.NewHandler(newService(t, service.Config{})))
	decodeBackToBack(t, srv.URL, 300)
	assertNoServePanic(t, "replica", sink)
}

// TestDecodeKeepAliveRouted is the same through a cluster.Router, whose
// upstream connection pool reuses replica connections on its own.
func TestDecodeKeepAliveRouted(t *testing.T) {
	replica, replicaLog := loggedServer(t, service.NewHandler(newService(t, service.Config{})))
	rt, err := cluster.New(cluster.Config{Replicas: []cluster.ReplicaConfig{{Name: "a", URL: replica.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front, routerLog := loggedServer(t, rt)
	decodeBackToBack(t, front.URL, 300)
	assertNoServePanic(t, "replica", replicaLog)
	assertNoServePanic(t, "router", routerLog)
}
