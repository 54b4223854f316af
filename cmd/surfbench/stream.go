package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"surfcomm"
	"surfcomm/internal/service"
)

const (
	streamDistance = 15
	streamWindow   = 15
	streamWindows  = 8 // full windows per session; a one-round flush follows
	streamP        = 0.003
	streamQ        = 0.003
	// streamPool sessions are drawn at setup and cycled; the decoder
	// keeps no state across sessions, so repeating inputs is harmless.
	streamPool = 240
	// streamTimeout bounds one session end to end.
	streamTimeout = 10 * time.Second
)

// streamMix is the strategy of pool session j (j mod 3). An even mix
// puts the pooled p50 exactly on the boundary between the two
// strategies' latency modes, where it does not repeat from run to run;
// with one mwpm session per two unionfind sessions, p50 sits inside the
// unionfind mode and p90 inside the mwpm mode.
var streamMix = []string{surfcomm.DecoderStrategyMWPM, surfcomm.DecoderStrategyUnionFind, surfcomm.DecoderStrategyUnionFind}

var errSessionTimeout = errors.New("decode session exceeded its deadline")

// streamSession is one pre-drawn session: its header line, one NDJSON
// frame line per round (the last round noise-free), and the true data
// error after the last round (the oracle's input).
type streamSession struct {
	strategy string
	header   []byte
	frames   [][]byte
	errs     []bool
}

// decodeStream drives back-to-back /decode sessions. Client i talks
// straight to replica i over a fresh connection per session; see the
// README for the connection-reuse defect this avoids.
type decodeStream struct {
	f    *fleet
	lat  *surfcomm.DecoderLattice
	pool []streamSession
	hc   []*http.Client
}

func (w *decodeStream) clients() int  { return maxClients }
func (w *decodeStream) cycle() int    { return 1 }
func (w *decodeStream) fleet() *fleet { return w.f }

func (w *decodeStream) close() {
	if w.f != nil {
		w.f.close()
	}
}

func (w *decodeStream) setup(b *bench) error {
	var err error
	if w.lat, err = surfcomm.NewDecoderLattice(streamDistance); err != nil {
		return err
	}
	w.pool = make([]streamSession, streamPool)
	for j := range w.pool {
		if w.pool[j], err = drawSession(w.lat, b.seed, j); err != nil {
			return err
		}
	}
	if w.f, err = startFleet(b.workdir, b.tr); err != nil {
		return err
	}
	w.hc = nil
	for range w.f.reps {
		w.hc = append(w.hc, &http.Client{Transport: &http.Transport{DisableKeepAlives: true}})
	}
	return nil
}

// drawSession draws session j: phenomenological noise (every round
// each data qubit flips with probability p on top of the surviving
// errors, and each syndrome bit is misread with probability q), then
// one noise-free final round.
func drawSession(l *surfcomm.DecoderLattice, seed int64, j int) (streamSession, error) {
	rng := rand.New(rand.NewSource(mix(seed, 5, int64(j))))
	s := streamSession{strategy: streamMix[j%len(streamMix)]}
	header, err := json.Marshal(service.DecodeStart{Distance: streamDistance, Window: streamWindow, Strategy: s.strategy})
	if err != nil {
		return s, err
	}
	s.header = append(header, '\n')
	errs := l.NewErrorPattern()
	for r := 0; r <= streamWindow*streamWindows; r++ {
		final := r == streamWindow*streamWindows
		if !final {
			for q := range errs {
				if rng.Float64() < streamP {
					errs[q] = !errs[q]
				}
			}
		}
		syn := l.Syndrome(errs)
		if !final {
			for c := range syn {
				if rng.Float64() < streamQ {
					syn[c] = !syn[c]
				}
			}
		}
		s.frames = append(s.frames, []byte(`{"syndrome":"`+service.PackBits(syn)+"\"}\n"))
	}
	s.errs = errs
	return s, nil
}

var endFrame = []byte("{\"end\":true}\n")

// do runs session j on client c and returns one sample per full window.
func (w *decodeStream) do(ctx context.Context, b *bench, c int, j int64, traced bool) []sample {
	s := &w.pool[j%streamPool]
	id := b.traceID(traced, j)
	start := time.Now()
	wins, err := w.session(ctx, b, c, s, id, j)
	b.span(id, spanSession, start, time.Now(), 0)
	if err != nil {
		out := make([]sample, streamWindows)
		for k := range out {
			out[k] = sample{op: j, traced: traced, id: id, failed: true}
		}
		return out
	}
	return wins
}

// session drives one /decode stream with a bounded deadline: when it
// passes, the request-body pipe is closed with an error, which ends the
// transport's body copy and so unblocks every read and write below.
func (w *decodeStream) session(ctx context.Context, b *bench, c int, s *streamSession, id string, j int64) ([]sample, error) {
	ctx, cancel := context.WithTimeout(ctx, streamTimeout)
	defer cancel()
	pr, pw := io.Pipe()
	defer pw.Close()
	stop := time.AfterFunc(streamTimeout, func() { pw.CloseWithError(errSessionTimeout) })
	defer stop.Stop()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.f.reps[c].srv.URL+"/decode",
		io.MultiReader(bytes.NewReader(s.header), pr))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", service.NDJSONContentType)
	if id != "" {
		req.Header.Set(traceHeader, id)
	}
	resp, err := w.hc[c].Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("decode session: status %d", resp.StatusCode)
	}
	rd := bufio.NewReader(resp.Body)
	var ack service.DecodeAck
	if err := readLine(rd, &ack); err != nil || !ack.OK {
		return nil, fmt.Errorf("decode ack: %v", err)
	}

	qubits := 2 * streamDistance * streamDistance
	cumulative := make([]bool, qubits)
	apply := func(res service.DecodeWindowResult) error {
		corr, err := service.UnpackBits(res.Correction, qubits)
		if err != nil {
			return err
		}
		for q, hot := range corr {
			cumulative[q] = cumulative[q] != hot
		}
		return nil
	}
	out := make([]sample, 0, streamWindows)
	for k := 0; k < streamWindows; k++ {
		var t0 time.Time
		for r := 0; r < streamWindow; r++ {
			if r == streamWindow-1 {
				t0 = time.Now()
			}
			if _, err := pw.Write(s.frames[k*streamWindow+r]); err != nil {
				return nil, err
			}
		}
		var res windowLine
		err := readLine(rd, &res)
		t1 := time.Now()
		if err == nil && res.Error != "" {
			err = errors.New(res.Error)
		}
		if err != nil {
			return nil, fmt.Errorf("window %d: %w", k+1, err)
		}
		if err := apply(res.DecodeWindowResult); err != nil {
			return nil, err
		}
		b.span(id, spanWindow, t0, t1, res.DecodeMicros)
		out = append(out, sample{op: j, lat: t1.Sub(t0), traced: id != "", id: id, attr: res.DecodeMicros})
	}
	// The noise-free final round, then the end marker: the server
	// flushes it as a one-round window and sends the summary.
	if _, err := pw.Write(s.frames[len(s.frames)-1]); err != nil {
		return nil, err
	}
	if _, err := pw.Write(endFrame); err != nil {
		return nil, err
	}
	pw.Close()
	var flush windowLine
	if err := readLine(rd, &flush); err != nil || flush.Error != "" {
		return nil, fmt.Errorf("flush window: %v %s", err, flush.Error)
	}
	if err := apply(flush.DecodeWindowResult); err != nil {
		return nil, err
	}
	var sum service.DecodeSummary
	if err := readLine(rd, &sum); err != nil || !sum.Done {
		return nil, fmt.Errorf("decode summary: %v", err)
	}
	if sum.Windows != streamWindows+1 || sum.Rounds != len(s.frames) {
		b.chk.failf("decode-stream session %d: summary %+v, want %d windows over %d rounds",
			j, sum, streamWindows+1, len(s.frames))
	}
	// Oracle: the true error XOR every streamed correction must leave no
	// defect once the noise-free final round is in.
	residual := make([]bool, qubits)
	for q := range residual {
		residual[q] = s.errs[q] != cumulative[q]
	}
	for _, hot := range w.lat.Syndrome(residual) {
		if hot {
			b.chk.failf("decode-stream session %d (%s): cumulative corrections leave a defect", j, s.strategy)
			break
		}
	}
	return out, nil
}

// windowLine is a window result or an in-stream error line.
type windowLine struct {
	service.DecodeWindowResult
	Error string `json:"error"`
}

func readLine(rd *bufio.Reader, v any) error {
	line, err := rd.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

// rounds decodes session j's frames back into syndrome rounds.
func (s *streamSession) rounds() ([][]bool, error) {
	out := make([][]bool, len(s.frames))
	for r, line := range s.frames {
		var f service.DecodeFrame
		if err := json.Unmarshal(line, &f); err != nil {
			return nil, err
		}
		bits, err := service.UnpackBits(f.Syndrome, streamDistance*streamDistance)
		if err != nil {
			return nil, err
		}
		out[r] = bits
	}
	return out, nil
}
