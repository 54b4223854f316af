//go:build !race

// The artifact check regenerates every committed sweep artifact, which
// takes seconds natively and about a minute under the race detector;
// the race run skips it, tier-1 and the determinism job run it.

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"surfcomm"
)

// artifacts maps each committed BENCH_*.json written by this command to
// the study flags that regenerate it (BENCH_serve.json is surfload's).
var artifacts = []struct{ file, args string }{
	{"BENCH_sweep.json", ""},
	{"BENCH_planar.json", "-epr"},
	{"BENCH_yield.json", "-yield"},
	{"BENCH_decode.json", "-decode"},
	{"BENCH_calib.json", "-calib"},
	{"BENCH_modular.json", "-modular"},
}

// TestArtifactsReproduce re-runs sweep for every committed artifact at
// the default seed and byte-compares the regenerated records with the
// committed file: any difference means the toolchain's determinism, or
// its science, moved without the artifact being regenerated.
//
// BENCH_modular.json also records wall_* timings that belong to the
// machine that produced it; they are stripped from both sides, and the
// committed run must document the acceptance contract instead: at
// N >= 8, wall_speedup and speedup_work >= 5 over monolithic
// compilation, and every one-leaf edit recompiles exactly one module.
func TestArtifactsReproduce(t *testing.T) {
	for _, a := range artifacts {
		t.Run(a.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", a.file))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), a.file)
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), "SWEEP_ARGS="+a.args+" -json "+path)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("sweep %s: %v\n%s", a.args, err, stderr.Bytes())
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if a.file == "BENCH_modular.json" {
				checkModularContract(t, want)
				want, got = stripWall(t, want), stripWall(t, got)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("regenerated %s differs from the committed artifact; run: go run ./cmd/sweep %s -json %s",
					a.file, a.args, a.file)
			}
		})
	}
}

// decodeRecords parses an artifact, rejecting fields the record schema
// does not have.
func decodeRecords(t *testing.T, raw []byte) []surfcomm.SweepCellResult {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var recs []surfcomm.SweepCellResult
	if err := dec.Decode(&recs); err != nil {
		t.Fatalf("artifact no longer matches the sweep record schema: %v", err)
	}
	return recs
}

// stripWall re-encodes records without their machine-local wall_*
// metrics.
func stripWall(t *testing.T, raw []byte) []byte {
	t.Helper()
	recs := decodeRecords(t, raw)
	for _, r := range recs {
		for key := range r.Metrics {
			if strings.HasPrefix(key, "wall_") {
				delete(r.Metrics, key)
			}
		}
	}
	out, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkModularContract asserts the committed BENCH_modular.json
// documents the incremental-compilation speedup it was built for.
func checkModularContract(t *testing.T, raw []byte) {
	t.Helper()
	for _, r := range decodeRecords(t, raw) {
		n := r.Metrics["modules"] - 1
		if n >= 8 {
			if ws := r.Metrics["wall_speedup"]; ws < 5 {
				t.Errorf("%s: committed wall_speedup %.2f < 5 at N=%.0f", r.Cell, ws, n)
			}
			if sw := r.Metrics["speedup_work"]; sw < 5 {
				t.Errorf("%s: speedup_work %.2f < 5 at N=%.0f", r.Cell, sw, n)
			}
		}
		if ci := r.Metrics["compiled_incr"]; ci != 1 {
			t.Errorf("%s: leaf edit recompiled %.0f modules, want 1", r.Cell, ci)
		}
	}
}
