package client_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"surfcomm"
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

// TestSendFailsOnceServerEndsSession: a server whose ReadTimeout (200
// ms) cuts an idle session ends the response stream, and the transport
// stops reading the request pipe. Send must then fail within a second,
// not wait until the caller's 30 s context ends — whether or not a
// concurrent Next is reading the stream.
func TestSendFailsOnceServerEndsSession(t *testing.T) {
	for _, withNext := range []bool{false, true} {
		name := "alone"
		if withNext {
			name = "with_next"
		}
		t.Run(name, func(t *testing.T) {
			tc, err := surfcomm.NewToolchain(surfcomm.WithDistance(5), surfcomm.WithSeed(1))
			if err != nil {
				t.Fatal(err)
			}
			svc := service.New(tc, service.Config{})
			srv := httptest.NewUnstartedServer(service.NewHandler(svc))
			srv.Config.ReadTimeout = 200 * time.Millisecond
			srv.Start()
			defer svc.Close()
			defer srv.Close()

			ctx, cancel := context.WithTimeout(t.Context(), 30*time.Second)
			defer cancel()
			ds, err := client.New(srv.URL).DecodeStream(ctx, service.DecodeStart{Distance: 3, Window: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			nextDone := make(chan struct{})
			if withNext {
				go func() {
					defer close(nextDone)
					for {
						if _, err := ds.Next(); err != nil {
							return
						}
					}
				}()
			} else {
				close(nextDone)
			}
			// Idle until the server has cut the session.
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
				if st := svc.DecodeStats(); st.Errors == 1 && st.Active == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the server never cut the idle session")
				}
			}
			sent := make(chan error, 1)
			start := time.Now()
			go func() {
				for {
					if err := ds.Send(make([]bool, 9)); err != nil {
						sent <- err
						return
					}
				}
			}()
			select {
			case err := <-sent:
				t.Logf("Send failed after %v: %v", time.Since(start), err)
			case <-time.After(time.Second):
				cancel() // unblock Send so the goroutine ends
				<-sent
				t.Fatal("Send still blocked 1s after the server ended the session")
			}
			<-nextDone
		})
	}
}
