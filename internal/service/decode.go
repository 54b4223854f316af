package service

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"surfcomm"
	"surfcomm/internal/faultinject"
	"surfcomm/internal/scerr"
)

// The /decode endpoint is the repo's first hard-real-time serving
// scenario: a client streams measured syndrome rounds as NDJSON frames
// over one full-duplex HTTP request, and the server answers a
// correction per decode window, reporting per window whether the
// decode kept up with the client's declared measurement cadence.
//
// Protocol (one JSON value per line, both directions):
//
//	client → {"distance":5,"window":3,"cadence_us":1000,"strategy":"unionfind"}
//	server ← {"ok":true,"checks":25,"qubits":50,"window":3,"strategy":"unionfind"}
//	client → {"syndrome":"<hex>"}            (one frame per measured round)
//	server ← {"window":1,"rounds":3,"defects":2,"correction":"<hex>",
//	          "decode_us":41.2,"kept_up":true}   (after every window-th frame)
//	client → {"end":true}
//	server ← {"done":true,"windows":4,"rounds":10,"vents":0,"workops":812,
//	          "kept_up":true}                (partial final window flushed first)
//
// Syndrome and correction bitmaps pack LSB-first: bit i lives at
// hex-decoded byte i/8, bit position i%8. A syndrome frame carries
// ceil(checks/8) bytes; corrections carry ceil(2d²/8).
//
// Errors before the ack line are plain HTTP statuses (bad header 400,
// shed or chaos 503, rate limit 429). After the ack the status line is
// long gone, so mid-stream failures — malformed frames, wrong-length
// bitmaps, odd defect volumes — arrive as one in-stream
// {"error":"..."} line and the stream ends. The session occupies one
// admission worker slot for its whole life: a fleet of streaming
// sessions and a burst of batch compiles share the same bounded pool,
// so decode sessions shed with 503 exactly like compiles when the
// queue is full.

// MaxDecodeWindow caps the per-session decode window: the change
// volume a window accumulates is window × d² bits, and the space-time
// graph built for it is reused every window, so the cap bounds both
// memory and the worst-case per-window decode latency a session can
// ask for.
const MaxDecodeWindow = 256

// MaxDecodeDistance caps the per-session code distance (the largest
// lattice the daemon will decode live).
const MaxDecodeDistance = 49

// DecodeStart is the session header the client sends first.
type DecodeStart struct {
	// Distance is the code distance (odd, >= 3).
	Distance int `json:"distance"`
	// Window is how many rounds accumulate per decode (>= 1).
	Window int `json:"window"`
	// CadenceUS is the declared per-round measurement cadence in
	// microseconds: a window's decode keeps up when it finishes within
	// rounds × cadence. 0 disables the real-time contract (kept_up is
	// then always true).
	CadenceUS int64 `json:"cadence_us,omitempty"`
	// Strategy names the decoding strategy ("mwpm", "unionfind");
	// empty selects mwpm.
	Strategy string `json:"strategy,omitempty"`
}

// DecodeAck is the server's session acceptance line.
type DecodeAck struct {
	OK       bool   `json:"ok"`
	Checks   int    `json:"checks"`
	Qubits   int    `json:"qubits"`
	Window   int    `json:"window"`
	Strategy string `json:"strategy"`
}

// DecodeFrame is one client stream line: a measured syndrome round, or
// the end marker (flush the partial window and summarize).
type DecodeFrame struct {
	Syndrome string `json:"syndrome,omitempty"`
	End      bool   `json:"end,omitempty"`
}

// DecodeWindowResult reports one decoded window.
type DecodeWindowResult struct {
	// Window is the 1-based window index; Rounds is how many rounds it
	// covered (less than the declared window only for a flushed tail).
	Window  int `json:"window"`
	Rounds  int `json:"rounds"`
	Defects int `json:"defects"`
	// Correction is the hex-packed data-qubit correction for the
	// window's change volume.
	Correction string `json:"correction"`
	// DecodeMicros is the measured decode latency; KeptUp is whether it
	// met rounds × cadence.
	DecodeMicros float64 `json:"decode_us"`
	KeptUp       bool    `json:"kept_up"`
	// Vented marks windows whose change volume needed the odd-parity
	// vent (a measurement error straddled the window seam).
	Vented bool `json:"vented,omitempty"`
}

// DecodeSummary is the final stream line.
type DecodeSummary struct {
	Done    bool   `json:"done"`
	Windows int    `json:"windows"`
	Rounds  int    `json:"rounds"`
	Vents   int    `json:"vents"`
	WorkOps uint64 `json:"workops"`
	// KeptUp is the session verdict: every window met the cadence.
	KeptUp bool `json:"kept_up"`
}

// DecodeStats is the /healthz snapshot of the streaming-decode
// subsystem.
type DecodeStats struct {
	// Active is the number of sessions currently holding worker slots.
	Active int `json:"active"`
	// Sessions counts sessions admitted since start; Shed counts
	// sessions refused at admission (queue full or injected chaos).
	Sessions uint64 `json:"sessions"`
	Shed     uint64 `json:"shed"`
	// Rounds and Windows count streamed rounds and decoded windows;
	// LateWindows counts windows that missed their cadence budget.
	Rounds      uint64 `json:"rounds"`
	Windows     uint64 `json:"windows"`
	LateWindows uint64 `json:"late_windows"`
	// Errors counts sessions that died mid-stream (malformed frames,
	// client disconnects, undecodable volumes).
	Errors uint64 `json:"errors"`
}

// decodeCounters is the service-wide mutable form of DecodeStats.
type decodeCounters struct {
	mu          sync.Mutex
	active      int
	sessions    uint64
	shed        uint64
	rounds      uint64
	windows     uint64
	lateWindows uint64
	errors      uint64
}

func (c *decodeCounters) snapshot() DecodeStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return DecodeStats{
		Active:      c.active,
		Sessions:    c.sessions,
		Shed:        c.shed,
		Rounds:      c.rounds,
		Windows:     c.windows,
		LateWindows: c.lateWindows,
		Errors:      c.errors,
	}
}

// DecodeStats snapshots the streaming-decode counters.
func (s *Service) DecodeStats() DecodeStats { return s.dec.snapshot() }

// DecodeSession is one admitted streaming session: it owns a windowed
// decoder and one admission worker slot until Close.
type DecodeSession struct {
	s        *Service
	wd       *surfcomm.StreamDecoder
	checks   int
	qubits   int
	window   int
	strategy string
	cadence  time.Duration // per round; 0 = no real-time contract

	windows   int
	pushed    int // rounds since the last decode
	ventsSeen int
	keptUpAll bool
	closed    bool
}

// StartDecode validates the header, rolls the chaos dice, and admits
// the session into the worker pool (blocking in the admission queue
// like any compile; shed with ErrOverloaded when the queue is full).
// The caller must Close the returned session.
func (s *Service) StartDecode(ctx context.Context, start DecodeStart) (*DecodeSession, error) {
	if start.Window > MaxDecodeWindow {
		return nil, scerr.BadConfig("service: decode window %d exceeds the %d cap", start.Window, MaxDecodeWindow)
	}
	if start.Distance > MaxDecodeDistance {
		return nil, scerr.BadConfig("service: decode distance %d exceeds the %d cap", start.Distance, MaxDecodeDistance)
	}
	if start.CadenceUS < 0 {
		return nil, scerr.BadConfig("service: negative cadence_us %d", start.CadenceUS)
	}
	// NewStreamDecoder validates distance, window, and strategy name.
	wd, err := surfcomm.NewStreamDecoder(start.Distance, start.Window, start.Strategy)
	if err != nil {
		return nil, err
	}
	if s.inj.Fire(faultinject.DecodeError) {
		s.dec.mu.Lock()
		s.dec.shed++
		s.dec.mu.Unlock()
		return nil, fmt.Errorf("%w: decode session", faultinject.ErrInjected)
	}
	if err := s.adm.acquire(ctx); err != nil {
		s.dec.mu.Lock()
		s.dec.shed++
		s.dec.mu.Unlock()
		return nil, err
	}
	strategy := start.Strategy
	if strategy == "" {
		strategy = surfcomm.DecoderStrategyMWPM
	}
	s.dec.mu.Lock()
	s.dec.active++
	s.dec.sessions++
	s.dec.mu.Unlock()
	return &DecodeSession{
		s:         s,
		wd:        wd,
		checks:    start.Distance * start.Distance,
		qubits:    2 * start.Distance * start.Distance,
		window:    start.Window,
		strategy:  strategy,
		cadence:   time.Duration(start.CadenceUS) * time.Microsecond,
		keptUpAll: true,
	}, nil
}

// Ack returns the session acceptance line.
func (d *DecodeSession) Ack() DecodeAck {
	return DecodeAck{OK: true, Checks: d.checks, Qubits: d.qubits, Window: d.window, Strategy: d.strategy}
}

// PushRound feeds one syndrome frame. When it completes a window the
// returned result is non-nil.
func (d *DecodeSession) PushRound(frame DecodeFrame) (*DecodeWindowResult, error) {
	syndrome, err := UnpackBits(frame.Syndrome, d.checks)
	if err != nil {
		return nil, err
	}
	d.s.dec.mu.Lock()
	d.s.dec.rounds++
	d.s.dec.mu.Unlock()
	d.pushed++
	start := time.Now()
	decoded, err := d.wd.PushRound(syndrome)
	if err != nil {
		return nil, err
	}
	if !decoded {
		return nil, nil
	}
	return d.windowResult(time.Since(start)), nil
}

// Flush decodes a partial final window; nil when the buffer was empty.
func (d *DecodeSession) Flush() (*DecodeWindowResult, error) {
	start := time.Now()
	decoded, err := d.wd.Flush()
	if err != nil {
		return nil, err
	}
	if !decoded {
		return nil, nil
	}
	return d.windowResult(time.Since(start)), nil
}

// windowResult packages the freshly decoded window and applies the
// cadence contract: the decode kept up iff it finished within the
// real time the window's rounds took to measure.
func (d *DecodeSession) windowResult(elapsed time.Duration) *DecodeWindowResult {
	d.windows++
	rounds := d.pushed
	d.pushed = 0
	vented := d.wd.Vents() > d.ventsSeen
	d.ventsSeen = d.wd.Vents()
	keptUp := d.cadence == 0 || elapsed <= time.Duration(rounds)*d.cadence
	if !keptUp {
		d.keptUpAll = false
	}
	d.s.dec.mu.Lock()
	d.s.dec.windows++
	if !keptUp {
		d.s.dec.lateWindows++
	}
	d.s.dec.mu.Unlock()
	return &DecodeWindowResult{
		Window:       d.windows,
		Rounds:       rounds,
		Defects:      d.wd.Defects(),
		Correction:   PackBits(d.wd.Correction()),
		DecodeMicros: float64(elapsed.Nanoseconds()) / 1e3,
		KeptUp:       keptUp,
		Vented:       vented,
	}
}

// Summary returns the end-of-stream line.
func (d *DecodeSession) Summary() DecodeSummary {
	return DecodeSummary{
		Done:    true,
		Windows: d.wd.Windows(),
		Rounds:  d.wd.Rounds(),
		Vents:   d.wd.Vents(),
		WorkOps: d.wd.WorkOps(),
		KeptUp:  d.keptUpAll,
	}
}

// Fail records a mid-stream session failure in the counters.
func (d *DecodeSession) Fail() {
	d.s.dec.mu.Lock()
	d.s.dec.errors++
	d.s.dec.mu.Unlock()
}

// Close releases the session's worker slot (idempotent). Decode
// latencies never feed the compile-pricing EWMA.
func (d *DecodeSession) Close() {
	if d.closed {
		return
	}
	d.closed = true
	d.s.adm.release(0)
	d.s.dec.mu.Lock()
	d.s.dec.active--
	d.s.dec.mu.Unlock()
}

// PackBits hex-encodes a bit vector LSB-first (the /decode frame
// packing).
func PackBits(bits []bool) string {
	buf := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b {
			buf[i/8] |= 1 << (i % 8)
		}
	}
	return hex.EncodeToString(buf)
}

// UnpackBits decodes an LSB-first hex bitmap of exactly n bits,
// rejecting wrong lengths and set padding bits — a truncated or
// oversized frame must fail loudly, not decode a garbled syndrome.
func UnpackBits(s string, n int) ([]bool, error) {
	want := (n + 7) / 8
	raw, err := hex.DecodeString(s)
	if err != nil {
		return nil, scerr.BadConfig("service: syndrome frame: %v", err)
	}
	if len(raw) != want {
		return nil, scerr.BadConfig("service: syndrome frame carries %d bytes, want %d (%d bits)", len(raw), want, n)
	}
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = raw[i/8]&(1<<(i%8)) != 0
	}
	for i := n; i < 8*len(raw); i++ {
		if raw[i/8]&(1<<(i%8)) != 0 {
			return nil, scerr.BadConfig("service: syndrome frame sets padding bit %d past the %d-bit syndrome", i, n)
		}
	}
	return bits, nil
}

// handleDecode serves POST /decode. Pre-ack failures are plain HTTP
// statuses; post-ack failures are in-stream {"error":...} lines.
func handleDecode(s *Service) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Full duplex from the first byte: window results stream back
		// while the client is still writing frames. This must be on
		// before ANY response write — without it the HTTP/1 server
		// drains the request body before sending headers, which against
		// a still-streaming client deadlocks even a pre-ack 4xx/5xx.
		// (HTTP/2 is naturally full-duplex; there the error is
		// ignorable.)
		rc := http.NewResponseController(w)
		rc.EnableFullDuplex() //nolint:errcheck // see comment
		// One session per connection. When the handler returns, the
		// server closes the session's unread body; that read can hit EOF
		// and start a background read that races the reading of the next
		// request on a reused connection ("invalid concurrent Body.Read").
		w.Header().Set("Connection", "close")
		if err := s.AllowClient(s.ClientKeyFor(r), 1); err != nil {
			writeErr(w, err)
			return
		}
		body := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxDecodeStreamBytes))
		var start DecodeStart
		if err := body.Decode(&start); err != nil {
			writeErr(w, scerr.BadConfig("service: decode header: %v", badFrame(err)))
			return
		}
		session, err := s.StartDecode(r.Context(), start)
		if err != nil {
			writeErr(w, err)
			return
		}
		defer session.Close()

		w.Header().Set("Content-Type", "application/x-ndjson")
		out := json.NewEncoder(w)
		send := func(v any) bool {
			if err := out.Encode(v); err != nil {
				return false
			}
			rc.Flush() //nolint:errcheck // best-effort; the next write surfaces a dead client
			return true
		}
		if !send(session.Ack()) {
			session.Fail()
			return
		}
		// The server's ReadTimeout bounds the whole body; re-armed before
		// every frame, it bounds the gap between frames instead, so a live
		// session streams on and an idle client still frees its slot.
		srv, _ := r.Context().Value(http.ServerContextKey).(*http.Server)
		for {
			if srv != nil && srv.ReadTimeout > 0 {
				rc.SetReadDeadline(time.Now().Add(srv.ReadTimeout)) //nolint:errcheck // unsupported: the whole-body bound stays
			}
			var frame DecodeFrame
			if err := body.Decode(&frame); err != nil {
				// Malformed frame or mid-session disconnect: the ack is
				// long sent, so report in-stream and hang up.
				session.Fail()
				send(map[string]string{"error": badFrame(err).Error()})
				return
			}
			if frame.End {
				res, err := session.Flush()
				if err != nil {
					session.Fail()
					send(map[string]string{"error": err.Error()})
					return
				}
				if res != nil && !send(res) {
					session.Fail()
					return
				}
				send(session.Summary())
				return
			}
			res, err := session.PushRound(frame)
			if err != nil {
				session.Fail()
				send(map[string]string{"error": err.Error()})
				return
			}
			if res != nil && !send(res) {
				session.Fail()
				return
			}
		}
	}
}

// maxDecodeStreamBytes caps one session's total request bytes — at the
// largest allowed lattice that is room for hundreds of thousands of
// rounds, while a runaway client cannot stream forever.
const maxDecodeStreamBytes = 256 << 20

// badFrame normalizes stream-read failures: EOF without an end marker
// is a disconnect, anything else passes through.
func badFrame(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return errors.New("stream ended without {\"end\":true}")
	}
	return err
}
