package ufdecoder

import (
	"errors"
	"slices"
	"testing"

	"surfcomm/internal/decoder"
	"surfcomm/internal/scerr"
)

// FuzzDecodeHistory feeds arbitrary change volumes to a fresh solver of
// each strategy. The input picks d ∈ {3, 5, 7} and rounds 0–8; the
// volume is rounds × d² bits long plus skew (so skew 0 is a well-formed
// volume and any other skew a wrong length), read LSB-first from bits
// and zero-padded. Neither solver may panic. A wrong length, rounds < 1
// or an odd number of set bits must fail with ErrBadConfig; any other
// volume must decode, and the correction's syndrome must equal the XOR
// of the volume's rounds — its net syndrome. The seed corpus lives in
// testdata/fuzz/FuzzDecodeHistory.
func FuzzDecodeHistory(f *testing.F) {
	f.Fuzz(func(t *testing.T, dSel, roundSel uint8, skew int8, bits []byte) {
		d := 3 + 2*int(dSel%3)
		rounds := int(roundSel % 9)
		l, err := decoder.NewLattice(d)
		if err != nil {
			t.Fatal(err)
		}
		checks := l.Checks()
		n := max(rounds*checks+int(skew), 0)
		changes := make([]bool, n)
		set := 0
		for i := range changes {
			if i/8 < len(bits) && bits[i/8]>>(i%8)&1 == 1 {
				changes[i] = true
				set++
			}
		}
		for _, s := range []decoder.Strategy{decoder.MWPM(), Strategy()} {
			correction := l.NewErrorPattern()
			err := s.NewSolver(l).DecodeHistory(correction, changes, rounds)
			if rounds < 1 || n != rounds*checks || set%2 != 0 {
				if !errors.Is(err, scerr.ErrBadConfig) {
					t.Fatalf("%s: %d bits (%d set) over %d rounds at d=%d: got %v, want ErrBadConfig",
						s.Name(), n, set, rounds, d, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %d-round volume at d=%d with %d set bits: %v", s.Name(), rounds, d, set, err)
			}
			net := make([]bool, checks)
			for i, hot := range changes {
				net[i%checks] = net[i%checks] != hot
			}
			if got := l.Syndrome(correction); !slices.Equal(got, net) {
				t.Fatalf("%s: %d-round volume at d=%d: correction syndrome %v, want net syndrome %v",
					s.Name(), rounds, d, got, net)
			}
		}
	})
}
