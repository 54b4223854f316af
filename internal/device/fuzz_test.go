package device

import (
	"bytes"
	"errors"
	"testing"

	"surfcomm/internal/scerr"
)

// FuzzParseCalibration feeds untrusted calibration JSON — the /compile
// request's calibration field and sweep -calibration files — through
// ParseCalibration. Every input either fails with an error matching
// ErrBadConfig or yields a snapshot whose canonical encoding re-parses
// to the same digest, and no input panics. The seed corpus lives in
// testdata/fuzz/FuzzParseCalibration.
func FuzzParseCalibration(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cal, err := ParseCalibration(data)
		if err != nil {
			if !errors.Is(err, scerr.ErrBadConfig) {
				t.Fatalf("error %v does not match ErrBadConfig", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := cal.Encode(&buf); err != nil {
			t.Fatalf("accepted snapshot does not encode: %v", err)
		}
		back, err := ParseCalibration(buf.Bytes())
		if err != nil {
			t.Fatalf("canonical encoding does not re-parse: %v\n%s", err, buf.Bytes())
		}
		if back.Digest() != cal.Digest() {
			t.Fatalf("round trip moved the digest from %s to %s", cal.Digest(), back.Digest())
		}
	})
}

// FuzzParseCouplingGraph feeds untrusted coupling-graph JSON through
// ParseCouplingGraph. Every input either fails with an error matching
// ErrBadConfig or yields a graph a device realizes on, and no input
// panics. The seed corpus lives in testdata/fuzz/FuzzParseCouplingGraph.
func FuzzParseCouplingGraph(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseCouplingGraph(data)
		if err != nil {
			if !errors.Is(err, scerr.ErrBadConfig) {
				t.Fatalf("error %v does not match ErrBadConfig", err)
			}
			return
		}
		if topo := OnGraph(g, 1).Instance(5, 7); topo.Rows() != 5 || topo.Cols() != 7 {
			t.Fatalf("graph %q realized as %dx%d, want 5x7", g.Name(), topo.Rows(), topo.Cols())
		}
	})
}
