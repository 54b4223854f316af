package client_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"surfcomm/client"
	"surfcomm/internal/service"
)

// TestDecodeStreamHonoursContext: a server that accepts the session but
// never answers must not strand DecodeStream past its context. The
// transport waits for the request body to finish before Do reports the
// cancellation, and that body is the session pipe the caller only feeds
// once DecodeStream returns — so the pipe has to close with the context.
func TestDecodeStreamHonoursContext(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-release }))
	defer srv.Close()
	defer close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		ds, err := client.New(srv.URL).DecodeStream(ctx, service.DecodeStart{Distance: 3, Window: 1})
		if ds != nil {
			ds.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("DecodeStream error = %v, want the context's deadline", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("DecodeStream still blocked 10s past its 200ms context")
	}
}
