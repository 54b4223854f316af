package main

import (
	"bytes"
	"errors"
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

// TestRejectsBadStudyInput asserts that impossible study inputs fail
// with a bad-config error and a non-zero exit before any cell runs: an
// unknown -app for every study that takes one, and a defect fraction
// outside [0,1), NaN included.
func TestRejectsBadStudyInput(t *testing.T) {
	for _, tt := range []struct{ args, want string }{
		{"-fig6 -app NOPE", "valid: GSE, SQ, SHA-1, IM"},
		{"-yield -app NOPE", "valid: GSE, SQ, SHA-1, IM"},
		{"-calib -app NOPE", "valid: GSE, SQ, SHA-1, IM"},
		{"-yield -defect-frac 1.5", "outside [0,1)"},
		{"-yield -defect-frac=-0.2", "outside [0,1)"},
		{"-yield -defect-frac NaN", "outside [0,1)"},
	} {
		t.Run(tt.args, func(t *testing.T) {
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), "SWEEP_ARGS="+tt.args)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("sweep %s: err = %v, want a non-zero exit\nstdout:\n%s", tt.args, err, stdout.Bytes())
			}
			msg := stderr.String()
			if !strings.Contains(msg, "bad config") || !strings.Contains(msg, tt.want) {
				t.Errorf("sweep %s: stderr %q, want a bad-config error naming %q", tt.args, msg, tt.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("sweep %s printed a table before failing:\n%s", tt.args, stdout.Bytes())
			}
		})
	}
}
