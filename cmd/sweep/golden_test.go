package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain doubles as the sweep binary: with SWEEP_ARGS set, the test
// executable runs main on those arguments, so the golden tests capture
// real CLI stdout without a separate build.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("SWEEP_ARGS"); ok {
		os.Args = append([]string{"sweep"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGoldenStdout pins the printed Tables 1-2 and the replay-verified
// Figure 6 grid byte for byte. Regenerate a golden with, e.g.,
//
//	go run ./cmd/sweep -table1 -table2 > cmd/sweep/testdata/tables.golden
func TestGoldenStdout(t *testing.T) {
	for _, tt := range []struct{ golden, args string }{
		{"tables.golden", "-table1 -table2"},
		{"fig6_gse_verify.golden", "-fig6 -app GSE -verify"},
	} {
		t.Run(tt.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tt.golden))
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), "SWEEP_ARGS="+tt.args)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("sweep %s: %v\n%s", tt.args, err, stderr.Bytes())
			}
			if !bytes.Equal(got, want) {
				t.Errorf("sweep %s stdout differs from %s:\n--- got ---\n%s--- want ---\n%s",
					tt.args, tt.golden, got, want)
			}
		})
	}
}
