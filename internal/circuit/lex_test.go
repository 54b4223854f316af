package circuit

import (
	"math/rand"
	"strings"
	"testing"
)

// TestSplitFieldsMatchesStringsFields: the lexer's field split is
// strings.Fields, Unicode white space and invalid UTF-8 included.
func TestSplitFieldsMatchesStringsFields(t *testing.T) {
	alphabet := []string{"a", "q1", ",", " ", "\t", "\v", "\f", "\r", "\u0085", "\u00a0",
		"\u2000", "\u3000", "\u200b", "\u00e9", "\xff", "\xc2", "\xe2\x80"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		line := strings.TrimSpace(b.String())
		want := strings.Fields(line)
		fl := splitFields(line)
		if fl.n != min(len(want), maxFields+1) {
			t.Fatalf("%q: %d fields, want %d", line, fl.n, len(want))
		}
		for j := 0; j < min(len(want), maxFields); j++ {
			if fl.f[j] != want[j] {
				t.Fatalf("%q: field %d is %q, want %q", line, j, fl.f[j], want[j])
			}
		}
	}
}
