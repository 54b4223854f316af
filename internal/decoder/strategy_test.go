package decoder

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"surfcomm/internal/scerr"
)

func TestStrategyRegistry(t *testing.T) {
	s, err := StrategyByName("")
	if err != nil || s.Name() != StrategyMWPM {
		t.Fatalf("empty name should resolve to mwpm, got %v, %v", s, err)
	}
	s, err = StrategyByName(StrategyMWPM)
	if err != nil || s.Name() != StrategyMWPM {
		t.Fatalf("mwpm should resolve, got %v, %v", s, err)
	}
	if _, err := StrategyByName("banana"); !errors.Is(err, scerr.ErrBadConfig) {
		t.Errorf("unknown strategy: got %v, want ErrBadConfig", err)
	}
	if names := StrategyNames(); !slices.Contains(names, StrategyMWPM) {
		t.Errorf("StrategyNames() = %v, want mwpm included", names)
	}
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{Workers: -1}).Validate(); !errors.Is(err, scerr.ErrBadConfig) {
		t.Errorf("negative workers: got %v, want ErrBadConfig", err)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config should validate, got %v", err)
	}
	// The harnesses surface it too.
	mc := &MonteCarlo{Lattice: lattice(t, 3), Rng: rand.New(rand.NewSource(1)), Config: Config{Workers: -2}}
	if _, err := mc.RunContext(context.Background(), 0.1, 10); !errors.Is(err, scerr.ErrBadConfig) {
		t.Errorf("MonteCarlo negative workers: got %v, want ErrBadConfig", err)
	}
	if _, err := (&MonteCarlo{Lattice: lattice(t, 3), Rng: rand.New(rand.NewSource(1))}).RunContext(context.Background(), 0.1, 0); !errors.Is(err, scerr.ErrBadConfig) {
		t.Errorf("zero trials: want ErrBadConfig")
	}
	if _, err := (&MonteCarlo{Rng: rand.New(rand.NewSource(1))}).RunContext(context.Background(), 0.1, 5); !errors.Is(err, scerr.ErrBadConfig) {
		t.Errorf("nil lattice: want ErrBadConfig")
	}
	if _, err := (&MonteCarlo{Lattice: lattice(t, 3)}).RunContext(context.Background(), 0.1, 5); !errors.Is(err, scerr.ErrBadConfig) {
		t.Errorf("nil rng: want ErrBadConfig")
	}
	hmc := &HistoryMonteCarlo{Lattice: lattice(t, 3), Rounds: 3, Rng: rand.New(rand.NewSource(1)), Config: Config{Workers: -1}}
	if _, err := hmc.RunContext(context.Background(), 0.01, 0.01, 10); !errors.Is(err, scerr.ErrBadConfig) {
		t.Errorf("HistoryMonteCarlo negative workers: got %v, want ErrBadConfig", err)
	}
	if _, err := NewLattice(4); !errors.Is(err, scerr.ErrBadConfig) {
		t.Errorf("even distance: want ErrBadConfig")
	}
}

// TestWindowDecoderMatchesBatch: a stream with perfect measurements
// pushed through a WindowDecoder must, cumulatively, clear the final
// syndrome — the streaming contract the /decode endpoint serves.
func TestWindowDecoderMatchesBatch(t *testing.T) {
	l := lattice(t, 5)
	rng := rand.New(rand.NewSource(17))
	const window, totalRounds = 3, 9

	w, err := NewWindowDecoder(l, window, nil)
	if err != nil {
		t.Fatal(err)
	}
	errs := l.NewErrorPattern()
	cumulative := l.NewErrorPattern()
	syndrome := make([]bool, l.Checks())
	for round := 0; round < totalRounds; round++ {
		for q := range errs {
			if rng.Float64() < 0.02 {
				errs[q] = !errs[q]
			}
		}
		copy(syndrome, l.Syndrome(errs))
		decoded, err := w.PushRound(syndrome)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if decoded {
			for q, hot := range w.Correction() {
				if hot {
					cumulative[q] = !cumulative[q]
				}
			}
		}
	}
	if w.Windows() != totalRounds/window {
		t.Fatalf("windows = %d, want %d", w.Windows(), totalRounds/window)
	}
	if w.Rounds() != totalRounds {
		t.Fatalf("rounds = %d, want %d", w.Rounds(), totalRounds)
	}
	if w.Vents() != 0 {
		t.Fatalf("perfect measurements should never vent, got %d", w.Vents())
	}
	combined := l.NewErrorPattern()
	for q := range combined {
		combined[q] = errs[q] != cumulative[q]
	}
	for i, hot := range l.Syndrome(combined) {
		if hot {
			t.Fatalf("cumulative streamed correction leaves defect at plaquette %d", i)
		}
	}
}

// TestWindowDecoderFlushPartial: a stream ending mid-window decodes
// the remainder via Flush.
func TestWindowDecoderFlushPartial(t *testing.T) {
	l := lattice(t, 3)
	w, err := NewWindowDecoder(l, 4, MWPM())
	if err != nil {
		t.Fatal(err)
	}
	errs := l.NewErrorPattern()
	errs[0] = true
	syn := l.Syndrome(errs)
	for i := 0; i < 2; i++ {
		decoded, err := w.PushRound(syn)
		if err != nil || decoded {
			t.Fatalf("push %d: decoded=%v err=%v", i, decoded, err)
		}
	}
	decoded, err := w.Flush()
	if err != nil || !decoded {
		t.Fatalf("flush: decoded=%v err=%v", decoded, err)
	}
	if w.Windows() != 1 || w.Rounds() != 2 {
		t.Fatalf("windows=%d rounds=%d, want 1, 2", w.Windows(), w.Rounds())
	}
	// The single data error produces two changes in round 0 only; the
	// correction must clear its syndrome.
	combined := l.NewErrorPattern()
	for q, hot := range w.Correction() {
		combined[q] = errs[q] != hot
	}
	for i, hot := range l.Syndrome(combined) {
		if hot {
			t.Fatalf("flush correction leaves defect at plaquette %d", i)
		}
	}
	// Flushing again is a no-op.
	if decoded, err := w.Flush(); decoded || err != nil {
		t.Fatalf("second flush: decoded=%v err=%v", decoded, err)
	}
}

// TestWindowDecoderVentsSeamMeasurementError: a measurement error whose
// defect pair straddles a window seam gives both windows odd parity;
// the vent must fire in each, and the two vent corrections must cancel
// up to a stabilizer loop — the net correction is syndrome-neutral and
// not a logical operator, i.e. identity on the code space.
func TestWindowDecoderVentsSeamMeasurementError(t *testing.T) {
	l := lattice(t, 5)
	const window = 2
	w, err := NewWindowDecoder(l, window, MWPM())
	if err != nil {
		t.Fatal(err)
	}
	clean := make([]bool, l.Checks())
	flipped := make([]bool, l.Checks())
	flipped[7] = true // check 7 misreads in round 1 (last round of window 0)

	cumulative := l.NewErrorPattern()
	push := func(s []bool) {
		t.Helper()
		decoded, err := w.PushRound(s)
		if err != nil {
			t.Fatal(err)
		}
		if decoded {
			for q, hot := range w.Correction() {
				if hot {
					cumulative[q] = !cumulative[q]
				}
			}
		}
	}
	push(clean)
	push(flipped) // window 0 decodes: one change at (1, 7) → odd → vent
	push(clean)   // change at (0, 7) of window 1
	push(clean)   // window 1 decodes: odd → vent
	if w.Vents() != 2 {
		t.Fatalf("vents = %d, want 2", w.Vents())
	}
	// There was no data error, so the net correction must act as the
	// identity on the code space: every plaquette check clear, no
	// torus winding.
	for i, hot := range l.Syndrome(cumulative) {
		if hot {
			t.Fatalf("net vent correction excites plaquette %d", i)
		}
	}
	if l.LogicalFailure(l.NewErrorPattern(), cumulative) {
		t.Fatal("net vent correction winds the torus — a logical error")
	}
}

// TestWindowDecoderValidation covers the config and frame error paths.
func TestWindowDecoderValidation(t *testing.T) {
	l := lattice(t, 3)
	if _, err := NewWindowDecoder(nil, 3, nil); !errors.Is(err, scerr.ErrBadConfig) {
		t.Errorf("nil lattice: got %v, want ErrBadConfig", err)
	}
	if _, err := NewWindowDecoder(l, 0, nil); !errors.Is(err, scerr.ErrBadConfig) {
		t.Errorf("zero window: got %v, want ErrBadConfig", err)
	}
	w, err := NewWindowDecoder(l, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.PushRound(make([]bool, 2)); !errors.Is(err, scerr.ErrBadConfig) {
		t.Errorf("short syndrome: got %v, want ErrBadConfig", err)
	}
}
