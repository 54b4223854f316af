package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"surfcomm"
	"surfcomm/internal/scerr"
)

// frontEnd runs the service's QASM front end: parse, then canonical
// re-emission.
func frontEnd(text string) ([]byte, error) {
	src, err := parseQASM(text)
	if err != nil {
		return nil, err
	}
	return src.canonical()
}

// FuzzParseQASM feeds untrusted request text through the one QASM
// front end that compile, estimate, and the router's RoutingKey share.
// Every input either fails with an error matching ErrBadConfig (a 400,
// never a 500) or yields canonical bytes that re-parse to the same
// bytes; RoutingKey fails exactly when the front end fails; and no
// input panics. The seed corpus lives in testdata/fuzz/FuzzParseQASM.
func FuzzParseQASM(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		canon, err := frontEnd(text)
		if _, kerr := RoutingKey(Request{QASM: text}); (kerr == nil) != (err == nil) {
			t.Fatalf("front end error %v, RoutingKey error %v", err, kerr)
		}
		if err != nil {
			if !errors.Is(err, scerr.ErrBadConfig) {
				t.Fatalf("error %v does not match ErrBadConfig", err)
			}
			return
		}
		again, err := frontEnd(string(canon))
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%s", err, canon)
		}
		if !bytes.Equal(again, canon) {
			t.Fatalf("canonical form is not a fixed point:\n%s\nre-emits as\n%s", canon, again)
		}
	})
}

// FuzzUnpackBits feeds untrusted /decode syndrome frames through the
// frame unpacker at syndrome sizes up to 65535 bits. A rejected frame
// fails with an error matching ErrBadConfig (a 400, never a 500); an
// accepted frame carries exactly n bits, and PackBits re-packs them to
// the frame's hex in lower case. No input panics. The seed corpus lives
// in testdata/fuzz/FuzzUnpackBits.
func FuzzUnpackBits(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame string, n uint16) {
		bits, err := UnpackBits(frame, int(n))
		if err != nil {
			if !errors.Is(err, scerr.ErrBadConfig) {
				t.Fatalf("error %v does not match ErrBadConfig", err)
			}
			return
		}
		if len(bits) != int(n) {
			t.Fatalf("accepted frame %q unpacked to %d bits, want %d", frame, len(bits), n)
		}
		if packed := PackBits(bits); packed != strings.ToLower(frame) {
			t.Fatalf("frame %q re-packs to %q", frame, packed)
		}
	})
}

// FuzzDecodeSession sends untrusted POST /decode bodies (header plus
// frames, possibly truncated or garbled) through the full handler. No
// input panics. A 200 reply is NDJSON whose every line is a JSON object
// and whose last line is the summary or an {"error":...} line; any
// other status carries a JSON error. Afterwards no session is active
// and no worker slot is held. The seed corpus lives in
// testdata/fuzz/FuzzDecodeSession.
func FuzzDecodeSession(f *testing.F) {
	tc, err := surfcomm.NewToolchain()
	if err != nil {
		f.Fatal(err)
	}
	svc := New(tc, Config{})
	f.Cleanup(svc.Close)
	h := NewHandler(svc)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/decode", bytes.NewReader(body)))
		var last map[string]json.RawMessage
		if rec.Code != http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &last); err != nil || last["error"] == nil {
				t.Fatalf("status %d without a JSON error: %q", rec.Code, rec.Body)
			}
		} else {
			lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
			for i, line := range lines {
				last = nil
				if err := json.Unmarshal([]byte(line), &last); err != nil {
					t.Fatalf("line %d of a 200 reply is not a JSON object: %q", i+1, line)
				}
			}
			if len(lines) < 2 || (last["error"] == nil && string(last["done"]) != "true") {
				t.Fatalf("200 reply does not end with a summary or an error line: %q", rec.Body)
			}
		}
		if a, r := svc.DecodeStats().Active, svc.AdmissionStats().Running; a != 0 || r != 0 {
			t.Fatalf("after the session: %d active, %d slots running", a, r)
		}
	})
}

// FuzzRequestDeadline feeds untrusted X-Request-Deadline values through
// the header parse at arbitrary arrival times. No input panics; every
// rejection matches ErrBadConfig (a 400); an accepted positive duration
// yields a deadline after now, and any other accepted value is the RFC
// 3339 instant it names. The seed corpus lives in
// testdata/fuzz/FuzzRequestDeadline.
func FuzzRequestDeadline(f *testing.F) {
	f.Fuzz(func(t *testing.T, hv string, nowNanos int64) {
		now := time.Unix(0, nowNanos)
		deadline, err := parseRequestDeadline(hv, now)
		if err != nil {
			if !errors.Is(err, scerr.ErrBadConfig) {
				t.Fatalf("error %v does not match ErrBadConfig", err)
			}
			return
		}
		if d, derr := time.ParseDuration(hv); derr == nil && d > 0 {
			if !deadline.After(now) {
				t.Fatalf("duration %q at %v gives deadline %v, not after now", hv, now, deadline)
			}
			return
		}
		if at, perr := time.Parse(time.RFC3339Nano, hv); perr != nil || !at.Equal(deadline) {
			t.Fatalf("accepted %q as %v, which is neither a positive duration nor its RFC 3339 time", hv, deadline)
		}
	})
}
