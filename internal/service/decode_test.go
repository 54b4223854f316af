package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"surfcomm"
	"surfcomm/client"
	"surfcomm/internal/faultinject"
	"surfcomm/internal/service"
)

// waitFor polls cond until it holds or the deadline passes — counters
// touched in a handler's deferred cleanup land shortly after the
// client sees the response end.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestPackBitsRoundTrip(t *testing.T) {
	bits := []bool{true, false, false, true, true, false, true, false, true, true}
	got, err := service.UnpackBits(service.PackBits(bits), len(bits))
	if err != nil {
		t.Fatal(err)
	}
	for i := range bits {
		if got[i] != bits[i] {
			t.Fatalf("bit %d: got %v want %v", i, got[i], bits[i])
		}
	}
	if _, err := service.UnpackBits("ff", 10); err == nil {
		t.Error("short bitmap should be rejected")
	}
	if _, err := service.UnpackBits("ffff", 10); err == nil {
		t.Error("set padding bits should be rejected")
	}
	if _, err := service.UnpackBits("zz", 8); err == nil {
		t.Error("non-hex should be rejected")
	}
}

// TestDecodeStreamEndToEnd drives a full session through the Go
// client against a live handler: accumulate random data errors,
// stream the measured syndromes, and verify the cumulative streamed
// corrections clear the final syndrome — then check the /healthz
// decode counters account for the session.
func TestDecodeStreamEndToEnd(t *testing.T) {
	for _, strategy := range []string{"mwpm", "unionfind"} {
		t.Run(strategy, func(t *testing.T) {
			svc := newService(t, service.Config{})
			srv := httptest.NewServer(service.NewHandler(svc))
			defer srv.Close()
			c := client.New(srv.URL)

			const d, window, totalRounds = 5, 3, 9
			l, err := surfcomm.NewDecoderLattice(d)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := c.DecodeStream(t.Context(), service.DecodeStart{
				Distance: d, Window: window, Strategy: strategy,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			if ack := ds.Ack(); ack.Checks != d*d || ack.Qubits != 2*d*d || ack.Strategy != strategy {
				t.Fatalf("ack = %+v", ack)
			}

			rng := rand.New(rand.NewSource(23))
			errs := l.NewErrorPattern()
			for round := 0; round < totalRounds; round++ {
				for q := range errs {
					if rng.Float64() < 0.02 {
						errs[q] = !errs[q]
					}
				}
				if err := ds.Send(l.Syndrome(errs)); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
			if err := ds.CloseSend(); err != nil {
				t.Fatal(err)
			}
			cumulative := l.NewErrorPattern()
			windows := 0
			for {
				res, err := ds.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				windows++
				if res.Window != windows || res.Rounds != window {
					t.Fatalf("window result %d = %+v", windows, res)
				}
				if !res.KeptUp {
					t.Errorf("window %d late with no cadence contract", res.Window)
				}
				corr, err := ds.Correction(res)
				if err != nil {
					t.Fatal(err)
				}
				for q, hot := range corr {
					if hot {
						cumulative[q] = !cumulative[q]
					}
				}
			}
			sum, ok := ds.Summary()
			if !ok || !sum.Done || sum.Windows != totalRounds/window || sum.Rounds != totalRounds || !sum.KeptUp {
				t.Fatalf("summary = %+v ok=%v", sum, ok)
			}
			combined := l.NewErrorPattern()
			for q := range combined {
				combined[q] = errs[q] != cumulative[q]
			}
			for i, hot := range l.Syndrome(combined) {
				if hot {
					t.Fatalf("streamed corrections leave defect at plaquette %d", i)
				}
			}

			waitFor(t, "session cleanup", func() bool { return svc.DecodeStats().Active == 0 })
			stats := svc.DecodeStats()
			if stats.Sessions != 1 || stats.Rounds != totalRounds ||
				stats.Windows != uint64(totalRounds/window) || stats.Errors != 0 || stats.Shed != 0 {
				t.Errorf("decode stats = %+v", stats)
			}
		})
	}
}

// rawDecodeStream opens /decode with hand-rolled framing so tests can
// send what the Go client never would.
func rawDecodeStream(t *testing.T, url string, header string) (*io.PipeWriter, *json.Decoder, func()) {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, url+"/decode",
		io.MultiReader(strings.NewReader(header+"\n"), pr))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("status = %d", resp.StatusCode)
	}
	return pw, json.NewDecoder(resp.Body), func() { pw.Close(); resp.Body.Close() }
}

// TestDecodeMalformedFrameMidStream: after valid frames, garbage must
// come back as an in-stream error line (the status is long gone), the
// stream must end, and the session must count as errored with its
// worker slot released.
func TestDecodeMalformedFrameMidStream(t *testing.T) {
	svc := newService(t, service.Config{})
	srv := httptest.NewServer(service.NewHandler(svc))
	defer srv.Close()

	pw, dec, cleanup := rawDecodeStream(t, srv.URL, `{"distance":3,"window":2}`)
	defer cleanup()
	var ack service.DecodeAck
	if err := dec.Decode(&ack); err != nil || !ack.OK {
		t.Fatalf("ack: %+v err=%v", ack, err)
	}
	frame := `{"syndrome":"` + service.PackBits(make([]bool, 9)) + `"}` + "\n"
	// "@@" is an immediate JSON syntax error: the decoder must not sit
	// waiting for more bytes of a value that can never parse.
	if _, err := pw.Write([]byte(frame + "@@\n")); err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := dec.Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if msg, _ := raw["error"].(string); msg == "" {
		t.Fatalf("want in-stream error line, got %v", raw)
	}
	if err := dec.Decode(&raw); !errors.Is(err, io.EOF) {
		t.Fatalf("stream should end after the error line, got %v / %v", raw, err)
	}
	waitFor(t, "errored session cleanup", func() bool {
		s := svc.DecodeStats()
		return s.Errors == 1 && s.Active == 0
	})
}

// TestDecodeWrongLengthFrame: a syndrome sized for the wrong distance
// is an in-stream error, not a garbled decode.
func TestDecodeWrongLengthFrame(t *testing.T) {
	svc := newService(t, service.Config{})
	srv := httptest.NewServer(service.NewHandler(svc))
	defer srv.Close()

	pw, dec, cleanup := rawDecodeStream(t, srv.URL, `{"distance":3,"window":1}`)
	defer cleanup()
	var ack service.DecodeAck
	if err := dec.Decode(&ack); err != nil {
		t.Fatal(err)
	}
	// 25-check frame against a distance-3 (9-check) session.
	frame := `{"syndrome":"` + service.PackBits(make([]bool, 25)) + `"}` + "\n"
	if _, err := pw.Write([]byte(frame)); err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := dec.Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if msg, _ := raw["error"].(string); !strings.Contains(msg, "bytes") {
		t.Fatalf("want length error, got %v", raw)
	}
}

// TestDecodeClientDisconnectMidSession: an abandoned session (client
// gone without {"end":true}) must count as errored and release its
// worker slot — leaked slots would strangle the compile pool.
func TestDecodeClientDisconnectMidSession(t *testing.T) {
	svc := newService(t, service.Config{})
	srv := httptest.NewServer(service.NewHandler(svc))
	defer srv.Close()
	c := client.New(srv.URL)

	ds, err := c.DecodeStream(t.Context(), service.DecodeStart{Distance: 3, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Send(make([]bool, 9)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "session admitted", func() bool { return svc.DecodeStats().Active == 1 })
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "disconnected session cleanup", func() bool {
		s := svc.DecodeStats()
		return s.Errors == 1 && s.Active == 0
	})
}

// TestDecodeCadenceExceeded: a session declaring a 1µs round cadence
// at a large distance cannot keep up (the first window's decode alone
// builds the space-time graph); the contract must say so honestly.
func TestDecodeCadenceExceeded(t *testing.T) {
	svc := newService(t, service.Config{})
	srv := httptest.NewServer(service.NewHandler(svc))
	defer srv.Close()
	c := client.New(srv.URL)

	const d = 13
	l, err := surfcomm.NewDecoderLattice(d)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := c.DecodeStream(t.Context(), service.DecodeStart{
		Distance: d, Window: 1, CadenceUS: 1, Strategy: "unionfind",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	errs := l.NewErrorPattern()
	errs[0], errs[7] = true, true
	if err := ds.Send(l.Syndrome(errs)); err != nil {
		t.Fatal(err)
	}
	res, err := ds.Next()
	if err != nil {
		t.Fatal(err)
	}
	if res.KeptUp {
		t.Errorf("1µs cadence at d=%d reported kept_up=true (decode_us=%g)", d, res.DecodeMicros)
	}
	if err := ds.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Next(); !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if sum, ok := ds.Summary(); !ok || sum.KeptUp {
		t.Errorf("summary kept_up should be false: %+v", sum)
	}
	waitFor(t, "late-window counter", func() bool { return svc.DecodeStats().LateWindows >= 1 })
}

// TestDecodeChaosShed: with the decode-error fault armed at
// probability 1, sessions shed with 503 before taking a worker slot,
// and the shed counter says so.
func TestDecodeChaosShed(t *testing.T) {
	inj := faultinject.New(42)
	if err := inj.Set(faultinject.DecodeError, 1); err != nil {
		t.Fatal(err)
	}
	svc := newService(t, service.Config{Injector: inj})
	srv := httptest.NewServer(service.NewHandler(svc))
	defer srv.Close()
	c := client.New(srv.URL)

	_, err := c.DecodeStream(t.Context(), service.DecodeStart{Distance: 3, Window: 1})
	var se *client.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("want 503 StatusError, got %v", err)
	}
	stats := svc.DecodeStats()
	if stats.Shed != 1 || stats.Sessions != 0 || stats.Active != 0 {
		t.Errorf("decode stats = %+v", stats)
	}
}

// TestDecodeSessionOccupiesWorkerSlot: a streaming session holds one
// admission slot, so with one worker and no queue a concurrent compile
// (and a second session) shed with 503 until the stream ends.
func TestDecodeSessionOccupiesWorkerSlot(t *testing.T) {
	svc := newService(t, service.Config{Workers: 1, QueueDepth: -1})
	srv := httptest.NewServer(service.NewHandler(svc))
	defer srv.Close()
	c := client.New(srv.URL, client.WithRetry(1, time.Millisecond, time.Millisecond))

	ds, err := c.DecodeStream(t.Context(), service.DecodeStart{Distance: 3, Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "slot held", func() bool { return svc.AdmissionStats().Running == 1 })

	if _, err := c.DecodeStream(t.Context(), service.DecodeStart{Distance: 3, Window: 1}); err == nil {
		t.Fatal("second session should shed with the only slot held")
	} else {
		var se *client.StatusError
		if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
			t.Fatalf("want 503, got %v", err)
		}
	}
	if _, err := c.Compile(t.Context(), service.Request{QASM: testQASM(t)}); err == nil {
		t.Fatal("compile should shed while the decode session holds the slot")
	}
	waitFor(t, "shed counted", func() bool { return svc.DecodeStats().Shed >= 1 })

	if err := ds.CloseSend(); err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := ds.Next(); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	ds.Close()
	waitFor(t, "slot released", func() bool { return svc.AdmissionStats().Running == 0 })
	if _, err := c.Compile(t.Context(), service.Request{QASM: testQASM(t)}); err != nil {
		t.Fatalf("compile after session end: %v", err)
	}
}

// TestDecodeBadHeaders covers pre-ack rejection: these answer plain
// HTTP statuses because nothing has streamed yet.
func TestDecodeBadHeaders(t *testing.T) {
	srv := newTestServer(t)
	for name, header := range map[string]string{
		"even distance":    `{"distance":4,"window":2}`,
		"zero window":      `{"distance":3,"window":0}`,
		"window over cap":  `{"distance":3,"window":100000}`,
		"distance cap":     `{"distance":51,"window":2}`,
		"unknown strategy": `{"distance":3,"window":2,"strategy":"banana"}`,
		"negative cadence": `{"distance":3,"window":2,"cadence_us":-5}`,
		"not json":         `pineapple`,
	} {
		resp, err := http.Post(srv.URL+"/decode", "application/x-ndjson", strings.NewReader(header+"\n"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
}

// readTimeoutServer serves svc with the daemon's slow-client bound
// scaled down: ReadTimeout 300 ms.
func readTimeoutServer(t *testing.T, svc *service.Service) *httptest.Server {
	t.Helper()
	srv := httptest.NewUnstartedServer(service.NewHandler(svc))
	srv.Config.ReadTimeout = 300 * time.Millisecond
	srv.Start()
	t.Cleanup(srv.Close)
	return srv
}

// TestDecodeSessionOutlivesReadTimeout: the server's ReadTimeout bounds
// the gap between frames, not the session — a client sending a frame
// every 200 ms (100 ms of slack for a loaded scheduler) streams well
// past the 300 ms bound to its summary.
func TestDecodeSessionOutlivesReadTimeout(t *testing.T) {
	svc := newService(t, service.Config{})
	c := client.New(readTimeoutServer(t, svc).URL)
	// A cut session can strand Send on the request pipe; the deadline
	// turns that into a failure instead of a hang.
	ctx, cancel := context.WithTimeout(t.Context(), 5*time.Second)
	defer cancel()
	ds, err := c.DecodeStream(ctx, service.DecodeStart{Distance: 3, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	const rounds = 7 // 1.4 s of streaming
	for i := 0; i < rounds; i++ {
		time.Sleep(200 * time.Millisecond)
		if err := ds.Send(make([]bool, 9)); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if err := ds.CloseSend(); err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := ds.Next(); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if sum, ok := ds.Summary(); !ok || sum.Rounds != rounds {
		t.Fatalf("summary = %+v ok=%v, want %d rounds", sum, ok, rounds)
	}
}

// TestDecodeIdleSessionHitsReadTimeout: a client that stops sending for
// longer than ReadTimeout loses its session, which counts as errored
// and frees its worker slot.
func TestDecodeIdleSessionHitsReadTimeout(t *testing.T) {
	svc := newService(t, service.Config{})
	c := client.New(readTimeoutServer(t, svc).URL)
	ds, err := c.DecodeStream(t.Context(), service.DecodeStart{Distance: 3, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if err := ds.Send(make([]bool, 9)); err != nil {
		t.Fatal(err)
	}
	// The client now goes silent; only the read deadline can end it.
	waitFor(t, "idle session cut", func() bool {
		s := svc.DecodeStats()
		return s.Errors == 1 && s.Active == 0
	})
}
