package service

import (
	"bytes"
	"errors"
	"strings"
	"testing"

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
