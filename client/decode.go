package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"surfcomm/internal/service"
)

// StreamError is an in-stream /decode failure: the server accepted the
// session (the HTTP status was long gone) and then reported an error
// line mid-stream — a malformed frame, an undecodable change volume, a
// server-side hangup.
type StreamError struct{ Msg string }

func (e *StreamError) Error() string { return "surfcommd: decode stream: " + e.Msg }

// DecodeSession is one live /decode stream. Send and Next may run
// concurrently (the protocol is full-duplex: with a window of w, every
// w-th Send has a result to read — a caller that never drains Next
// eventually blocks Send on the transport window). Once the server has
// ended the session, Send fails. Close always; it is idempotent.
type DecodeSession struct {
	ack     service.DecodeAck
	pw      *io.PipeWriter
	body    io.Closer   // ends the pipe for Send once the stream has ended
	stop    func() bool // detaches the context hook that ends pw
	enc     *json.Encoder
	resp    *http.Response
	dec     *json.Decoder
	summary *service.DecodeSummary
	closed  bool
}

// errSessionEnded is what Send returns once the session's response
// stream has ended.
var errSessionEnded = errors.New("surfcommd: decode session ended by the server")

// sessionBody is a /decode request body: the header line, then the
// pipe Send writes into. Closing it ends the pipe, so when the
// transport gives the exchange up — the server cut the session — and
// closes the body, a blocked or later Send fails instead of waiting on
// a reader that is gone. (A plain io.MultiReader is not an io.Closer:
// net/http would wrap it in a no-op Close.)
type sessionBody struct {
	io.Reader
	pr *io.PipeReader
}

func (b sessionBody) Close() error { return b.pr.CloseWithError(errSessionEnded) }

// DecodeStream opens a streaming decode session. Unlike the one-shot
// endpoints there are no retries: a stream is stateful, so the caller
// decides whether to re-run a failed session. A non-200 acceptance
// (bad header 400, shed or chaos 503, rate limit 429) returns a
// *StatusError with Attempts=1.
func (c *Client) DecodeStream(ctx context.Context, start service.DecodeStart) (_ *DecodeSession, err error) {
	header, err := json.Marshal(start)
	if err != nil {
		return nil, err
	}
	header = append(header, '\n')
	pr, pw := io.Pipe()
	body := sessionBody{io.MultiReader(bytes.NewReader(header), pr), pr}
	// The transport can wait for the request body to finish before Do
	// reports a canceled request, and this body is a pipe the caller
	// only feeds after Do returns: end the pipe with ctx so an expired
	// or canceled session never strands the caller inside Do.
	stop := context.AfterFunc(ctx, func() { pw.CloseWithError(context.Cause(ctx)) })
	defer func() {
		if err != nil {
			stop()
			pw.Close()
		}
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/decode", body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if c.apiKey != "" {
		req.Header.Set("X-API-Key", c.apiKey)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		return nil, &StatusError{Code: resp.StatusCode, Body: strings.TrimSpace(string(body)), Attempts: 1}
	}
	dec := json.NewDecoder(resp.Body)
	var ack service.DecodeAck
	if err := dec.Decode(&ack); err != nil || !ack.OK {
		resp.Body.Close()
		if err == nil {
			err = &StreamError{Msg: "server ack not ok"}
		}
		return nil, fmt.Errorf("surfcommd: decode ack: %w", err)
	}
	return &DecodeSession{ack: ack, pw: pw, body: body, stop: stop, enc: json.NewEncoder(pw), resp: resp, dec: dec}, nil
}

// Ack returns the server's session acceptance (checks and qubits size
// the syndrome and correction bitmaps).
func (ds *DecodeSession) Ack() service.DecodeAck { return ds.ack }

// Send streams one measured syndrome round (length Ack().Checks). It
// fails once the server has ended the session: an in-stream error, the
// summary, a hangup, or the server's per-frame read bound cutting an
// idle client.
func (ds *DecodeSession) Send(syndrome []bool) error {
	if len(syndrome) != ds.ack.Checks {
		return fmt.Errorf("surfcommd: syndrome length %d != %d checks", len(syndrome), ds.ack.Checks)
	}
	return ds.enc.Encode(service.DecodeFrame{Syndrome: service.PackBits(syndrome)})
}

// CloseSend ends the round stream: the server flushes any partial
// window and answers the summary line (read it with Next until io.EOF,
// then Summary).
func (ds *DecodeSession) CloseSend() error {
	if err := ds.enc.Encode(service.DecodeFrame{End: true}); err != nil {
		return err
	}
	return ds.pw.Close()
}

// Next returns the next decoded window. It returns io.EOF once the
// summary line has arrived (Summary then reports it), and a
// *StreamError when the server reported an in-stream failure. Either
// ends the session for Send too.
func (ds *DecodeSession) Next() (_ *service.DecodeWindowResult, err error) {
	if ds.summary != nil {
		return nil, io.EOF
	}
	defer func() {
		if err != nil {
			ds.body.Close()
		}
	}()
	var raw json.RawMessage
	if err := ds.dec.Decode(&raw); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, &StreamError{Msg: "server hung up before the summary line"}
		}
		return nil, err
	}
	var probe struct {
		Done  bool   `json:"done"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return nil, err
	}
	if probe.Error != "" {
		return nil, &StreamError{Msg: probe.Error}
	}
	if probe.Done {
		var sum service.DecodeSummary
		if err := json.Unmarshal(raw, &sum); err != nil {
			return nil, err
		}
		ds.summary = &sum
		return nil, io.EOF
	}
	var res service.DecodeWindowResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Correction unpacks a window result's correction bitmap (length
// Ack().Qubits).
func (ds *DecodeSession) Correction(res *service.DecodeWindowResult) ([]bool, error) {
	return service.UnpackBits(res.Correction, ds.ack.Qubits)
}

// Summary returns the end-of-stream summary; ok is false until Next
// has returned io.EOF.
func (ds *DecodeSession) Summary() (service.DecodeSummary, bool) {
	if ds.summary == nil {
		return service.DecodeSummary{}, false
	}
	return *ds.summary, true
}

// Close tears the session down (idempotent): an abandoned session —
// closed without CloseSend — surfaces server-side as a mid-stream
// disconnect and frees its worker slot.
func (ds *DecodeSession) Close() error {
	if ds.closed {
		return nil
	}
	ds.closed = true
	ds.stop()
	ds.pw.CloseWithError(errors.New("surfcommd: decode session closed"))
	return ds.resp.Body.Close()
}
