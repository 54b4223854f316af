package faultinject_test

import (
	"testing"
	"time"

	"surfcomm/internal/faultinject"
)

// TestNilInjectorIsInert pins the zero-cost-when-off contract: every
// method is nil-safe and injects nothing.
func TestNilInjectorIsInert(t *testing.T) {
	var in *faultinject.Injector
	for _, p := range faultinject.Points() {
		if in.Fire(p) {
			t.Errorf("nil injector fired %s", p)
		}
	}
	if d := in.CompileDelay(); d != 0 {
		t.Errorf("nil injector delay = %s, want 0", d)
	}
	if c := in.Counts(); c != nil {
		t.Errorf("nil injector counts = %v, want nil", c)
	}
	if s := in.String(); s != "off" {
		t.Errorf("nil injector String = %q, want off", s)
	}
}

// TestProbabilityEndpoints pins the two deterministic regimes tests
// lean on: probability 0 never fires, probability 1 always fires.
func TestProbabilityEndpoints(t *testing.T) {
	in := faultinject.New(1)
	if err := in.Set(faultinject.TornWrite, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if !in.Fire(faultinject.TornWrite) {
			t.Fatal("probability 1 must always fire")
		}
		if in.Fire(faultinject.CompileError) {
			t.Fatal("unarmed point must never fire")
		}
	}
	if got := in.Counts()["torn-write"]; got != 100 {
		t.Errorf("torn-write count = %d, want 100", got)
	}
}

// TestDeterministicSequence pins seed determinism: two injectors with
// the same seed and config fire identically call for call.
func TestDeterministicSequence(t *testing.T) {
	a, b := faultinject.New(42), faultinject.New(42)
	for _, in := range []*faultinject.Injector{a, b} {
		if err := in.Set(faultinject.CompileError, 0.3); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		if a.Fire(faultinject.CompileError) != b.Fire(faultinject.CompileError) {
			t.Fatalf("draw %d diverges between same-seed injectors", i)
		}
	}
	other := faultinject.New(43)
	if err := other.Set(faultinject.CompileError, 0.3); err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < 500; i++ {
		if a.Fire(faultinject.CompileError) != other.Fire(faultinject.CompileError) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced an identical 500-draw sequence")
	}
}

// TestParse pins the -chaos spec grammar.
func TestParse(t *testing.T) {
	in, err := faultinject.Parse("compile-error=1, torn-write=0.0 ,compile-latency=50ms,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if !in.Fire(faultinject.CompileError) {
		t.Error("compile-error=1 must fire")
	}
	if in.Fire(faultinject.TornWrite) {
		t.Error("torn-write=0 must not fire")
	}
	if d := in.CompileDelay(); d != 50*time.Millisecond {
		t.Errorf("latency = %s, want 50ms", d)
	}

	for _, bad := range []string{
		"compile-error",        // no value
		"compile-error=2",      // out of range
		"compile-error=-0.1",   // negative
		"no-such-point=0.5",    // unknown point
		"compile-latency=fast", // not a duration
		"compile-latency=-1s",  // negative duration
		"seed=banana",          // non-integer seed
		"compile-error=NaN",    // not a probability
		"seed=7abc",            // trailing garbage after the seed
		"torn-write=0.5junk",   // trailing garbage after the probability
	} {
		if _, err := faultinject.Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted a bad spec", bad)
		}
	}

	empty, err := faultinject.Parse("")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range faultinject.Points() {
		if empty.Fire(p) {
			t.Errorf("empty spec fired %s", p)
		}
	}
}
