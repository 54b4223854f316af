package circuit_test

import (
	"bufio"
	"errors"
	"strings"
	"testing"

	"surfcomm/internal/apps"
	"surfcomm/internal/circuit"
)

func gseText(t testing.TB, m int) string {
	t.Helper()
	c, err := apps.NewGSE(apps.GSEConfig{M: m, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	return circuit.QASMString(c)
}

func pipelineText(t testing.TB, n int) string {
	t.Helper()
	p, err := apps.PipelineProgram(n)
	if err != nil {
		t.Fatal(err)
	}
	return circuit.ProgramQASMString(p)
}

// TestAppendCanonical: the writers' output is a fixed point, spelling
// and module order the grammar ignores leave the bytes alone, the bytes
// go after what dst holds, and a rejected text leaves dst as it was.
func TestAppendCanonical(t *testing.T) {
	gse, pipeline := gseText(t, 8), pipelineText(t, 4)
	cases := []struct{ in, want string }{
		{gse, gse},
		{pipeline, pipeline},
		{"qubits 0\n", "qubits 0\n"},
		{"  # bell \r\n\n qubits\t2\ncnot\u00a0q+0,q01\r\n# later\n", "# bell\nqubits 2\ncnot q0,q1\n"},
		{"module b 1\nh q0\nentry a\nmodule a 2\ncall b q1\n", "entry a\nmodule a 2\ncall b q1\nmodule b 1\nh q0\n"},
	}
	for _, c := range cases {
		got, err := circuit.AppendCanonical([]byte("head"), c.in)
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if string(got) != "head"+c.want {
			t.Errorf("%q canonicalized to %q, want %q", c.in, got, "head"+c.want)
		}
	}
	dst := []byte("kept")
	got, err := circuit.AppendCanonical(dst, "entry a\nmodule a 1\ncall b q0\n")
	if err == nil || string(got) != "kept" {
		t.Errorf("unknown callee: %q, %v; want an error and dst as it was", got, err)
	}
}

// TestLineBoundMatchesScanner: the longest line the grammar takes is
// the one a bufio.Scanner over a 16 MB buffer took, with or without a
// line end after it.
func TestLineBoundMatchesScanner(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 16 MB lines")
	}
	for _, n := range []int{16<<20 - 1, 16 << 20} {
		for _, tail := range []string{"", "\n"} {
			text := "qubits 1\n#" + strings.Repeat("x", n-1) + tail
			sc := bufio.NewScanner(strings.NewReader(text))
			sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
			for sc.Scan() {
			}
			if tooLong := sc.Err() != nil; tooLong != (n == 16<<20) {
				t.Fatalf("line of %d bytes, tail %q: scanner error %v", n, tail, sc.Err())
			}
			_, err := circuit.AppendCanonical(nil, text)
			if !errors.Is(err, sc.Err()) {
				t.Errorf("line of %d bytes, tail %q: AppendCanonical error %v, scanner error %v", n, tail, err, sc.Err())
			}
		}
	}
}
