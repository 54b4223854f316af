package faultinject

import "testing"

// FuzzParseChaos feeds arbitrary -chaos specs to Parse. No input
// panics; an accepted spec arms only known points, at probabilities in
// [0,1], with a non-negative compile latency; and when it arms
// anything, its String() re-parses to the same String(). The seed
// corpus lives in testdata/fuzz/FuzzParseChaos.
func FuzzParseChaos(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		in, err := Parse(spec)
		if err != nil {
			return
		}
		armed := in.latency > 0
		for p, prob := range in.probs {
			if !validPoint(p) {
				t.Fatalf("spec %q armed unknown point %q", spec, p)
			}
			if !(prob >= 0 && prob <= 1) {
				t.Fatalf("spec %q armed %s at probability %g", spec, p, prob)
			}
			armed = armed || prob > 0
		}
		if in.latency < 0 {
			t.Fatalf("spec %q set negative compile latency %s", spec, in.latency)
		}
		if !armed {
			return
		}
		s := in.String()
		again, err := Parse(s)
		if err != nil {
			t.Fatalf("String() %q of spec %q does not re-parse: %v", s, spec, err)
		}
		if got := again.String(); got != s {
			t.Fatalf("String() %q of spec %q re-parses as %q", s, spec, got)
		}
	})
}
