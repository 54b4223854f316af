//go:build !race

// The race detector drops pooled scratch at random, so these pins only
// hold without it.

package circuit_test

import (
	"testing"

	"surfcomm/internal/circuit"
)

// TestAppendCanonicalAllocatesNothing pins the hit path's front end: in
// steady state canonicalizing a flat circuit or a 16-stage program
// allocates nothing.
func TestAppendCanonicalAllocatesNothing(t *testing.T) {
	for name, text := range map[string]string{
		"GSE-40":      gseText(t, 40),
		"pipeline-16": pipelineText(t, 16),
	} {
		var buf []byte
		run := func() {
			var err error
			if buf, err = circuit.AppendCanonical(buf[:0], text); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("%s: AppendCanonical allocates %v times per call, want 0", name, allocs)
		}
	}
}
