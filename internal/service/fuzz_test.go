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
	"surfcomm/internal/circuit"
	"surfcomm/internal/scerr"
)

// FuzzParseQASM feeds untrusted request text through the QASM front
// end that compile, estimate, and the router's RoutingKey share, and
// holds it to the scanner-and-fmt oracle in oracle_test.go. For every
// input the one-pass canonical bytes, the circuit or program the
// builders make, and RoutingKey agree with the oracle: the same accept
// or reject decision with the same message, byte-identical canonical
// bytes, and the same key. The dialect parsers agree with theirs on the
// input even where the sniff would pick the other dialect. Rejections
// match ErrBadConfig (a 400, never a 500), canonical bytes are a fixed
// point, and no input panics. The seed corpus lives in
// testdata/fuzz/FuzzParseQASM.
func FuzzParseQASM(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		want, werr := oracleFrontEnd(text)
		canon, err := appendCanonicalQASM(nil, text)
		if msg(err) != msg(werr) {
			t.Fatalf("front end error %q, oracle error %q", msg(err), msg(werr))
		}
		key, kerr := RoutingKey(Request{QASM: text})
		wantKey, wkerr := oracleRoutingKey(Request{QASM: text})
		if key != wantKey || msg(kerr) != msg(wkerr) {
			t.Fatalf("RoutingKey %q (error %v), oracle %q (error %v)", key, kerr, wantKey, wkerr)
		}
		src, perr := parseQASM(text)
		if msg(perr) != msg(werr) {
			t.Fatalf("builder error %q, oracle error %q", msg(perr), msg(werr))
		}
		c, cerr := circuit.ReadQASM(strings.NewReader(text))
		wc, wcerr := oracleReadCircuit(strings.NewReader(text))
		if msg(cerr) != msg(wcerr) {
			t.Fatalf("ReadQASM error %q, oracle error %q", msg(cerr), msg(wcerr))
		}
		if cerr == nil {
			if got, want := emitCircuit(c), emitCircuit(wc); got != want {
				t.Fatalf("ReadQASM built\n%s\noracle built\n%s", got, want)
			}
		}
		p, perr := circuit.ReadProgramQASM(strings.NewReader(text))
		wp, wperr := oracleReadProgram(strings.NewReader(text))
		if msg(perr) != msg(wperr) {
			t.Fatalf("ReadProgramQASM error %q, oracle error %q", msg(perr), msg(wperr))
		}
		if perr == nil {
			if got, want := emitProgram(p), emitProgram(wp); got != want {
				t.Fatalf("ReadProgramQASM built\n%s\noracle built\n%s", got, want)
			}
		}
		if err != nil {
			if !errors.Is(err, scerr.ErrBadConfig) || !errors.Is(kerr, scerr.ErrBadConfig) {
				t.Fatalf("error %v does not match ErrBadConfig", err)
			}
			return
		}
		if !bytes.Equal(canon, want) {
			t.Fatalf("canonical bytes\n%s\noracle bytes\n%s", canon, want)
		}
		built := emitCircuit(src.circuit)
		if src.program != nil {
			built = emitProgram(src.program)
		}
		if built != string(want) {
			t.Fatalf("the builder's circuit emits\n%s\noracle bytes\n%s", built, want)
		}
		again, err := appendCanonicalQASM(nil, string(canon))
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%s", err, canon)
		}
		if !bytes.Equal(again, canon) {
			t.Fatalf("canonical form is not a fixed point:\n%s\nre-emits as\n%s", canon, again)
		}
	})
}

// msg is err's text, or "" for nil.
func msg(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// emitCircuit and emitProgram render with the oracle's writers; nil
// renders as "".
func emitCircuit(c *circuit.Circuit) string {
	var b strings.Builder
	if c != nil {
		oracleWriteCircuit(&b, c)
	}
	return b.String()
}

func emitProgram(p *circuit.Program) string {
	var b strings.Builder
	if p != nil {
		oracleWriteProgram(&b, p)
	}
	return b.String()
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
