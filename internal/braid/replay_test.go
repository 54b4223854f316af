package braid

import (
	"context"
	"strings"
	"testing"

	"surfcomm/internal/apps"
	"surfcomm/internal/circuit"
)

func recordedRun(t *testing.T, c *circuit.Circuit, p Policy) Result {
	t.Helper()
	r, err := SimulateContext(context.Background(), c, p, Config{Distance: 5, Seed: 1, RecordSchedule: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Schedule == nil || r.Arch == nil {
		t.Fatal("recording enabled but schedule/arch missing")
	}
	return r
}

func TestRecordedSchedulesReplayCleanly(t *testing.T) {
	workloads := []apps.Workload{
		{Name: "GSE", Circuit: apps.GSE(apps.GSEConfig{M: 5, Steps: 1})},
		{Name: "SQ", Circuit: apps.SQ(apps.SQConfig{N: 4, Iters: 1})},
		{Name: "IM", Circuit: apps.Ising(apps.IsingConfig{N: 16, Steps: 1}, true)},
	}
	for _, w := range workloads {
		for _, p := range []Policy{Policy0, Policy1, Policy6} {
			r := recordedRun(t, w.Circuit, p)
			if err := Replay(w.Circuit, r.Arch, r.Schedule); err != nil {
				t.Errorf("%s under %v: recorded schedule fails replay: %v", w.Name, p, err)
			}
		}
	}
}

func TestReplayDetectsMissingOp(t *testing.T) {
	c := apps.GSE(apps.GSEConfig{M: 4, Steps: 1})
	r := recordedRun(t, c, Policy1)
	truncated := r.Schedule[:len(r.Schedule)-1]
	if err := Replay(c, r.Arch, truncated); err == nil {
		t.Error("dropping an entry should fail replay")
	}
}

func TestReplayDetectsDependencyInversion(t *testing.T) {
	c := circuit.New("chain", 1)
	c.Append(circuit.H, 0)
	c.Append(circuit.H, 0)
	r := recordedRun(t, c, Policy1)
	// Move the second op before the first finishes.
	broken := append([]ScheduleEntry(nil), r.Schedule...)
	for i := range broken {
		if broken[i].Op == 1 {
			broken[i].Start = 0
			broken[i].End = 1
		}
	}
	err := Replay(c, r.Arch, broken)
	if err == nil {
		t.Fatal("dependency inversion should fail replay")
	}
	if !strings.Contains(err.Error(), "dependency") && !strings.Contains(err.Error(), "double-booked") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestReplayDetectsResourceConflict(t *testing.T) {
	// Two independent CNOTs; shift the second braid's open on top of
	// the first one's interval along an overlapping path.
	c := circuit.New("pair", 4)
	c.Append(circuit.CNOT, 0, 3)
	c.Append(circuit.CNOT, 1, 2)
	r := recordedRun(t, c, Policy1)
	broken := append([]ScheduleEntry(nil), r.Schedule...)
	// Force op 1's entries to occupy op 0's path at op 0's time.
	var path0 []ScheduleEntry
	for _, e := range broken {
		if e.Op == 0 && e.Kind != EntryLocal {
			path0 = append(path0, e)
		}
	}
	if len(path0) == 0 {
		t.Fatal("no braid entries for op 0")
	}
	for i := range broken {
		if broken[i].Op == 1 && broken[i].Kind == EntryOpen {
			broken[i].Start = path0[0].Start
			broken[i].End = path0[0].End
			broken[i].Path = path0[0].Path
		}
	}
	if err := Replay(c, r.Arch, broken); err == nil {
		t.Error("path double-booking should fail replay")
	}
}

func TestReplayDetectsMalformedEntries(t *testing.T) {
	c := circuit.New("one", 2)
	c.Append(circuit.CNOT, 0, 1)
	r := recordedRun(t, c, Policy1)

	bad := append([]ScheduleEntry(nil), r.Schedule...)
	bad[0].End = bad[0].Start
	if err := Replay(c, r.Arch, bad); err == nil {
		t.Error("empty interval should fail")
	}

	bad = append([]ScheduleEntry(nil), r.Schedule...)
	bad[0].Op = 99
	if err := Replay(c, r.Arch, bad); err == nil {
		t.Error("out-of-range op should fail")
	}
}

func TestNoRecordingByDefault(t *testing.T) {
	c := circuit.New("one", 2)
	c.Append(circuit.CNOT, 0, 1)
	r, err := SimulateContext(context.Background(), c, Policy1, Config{Distance: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Schedule != nil || r.Arch != nil {
		t.Error("schedule should not be recorded unless requested")
	}
}

func TestRecordedScheduleShape(t *testing.T) {
	c := circuit.New("mix", 3)
	c.Append(circuit.H, 0)
	c.Append(circuit.CNOT, 0, 1)
	c.Append(circuit.T, 2) // magic braid by default
	r := recordedRun(t, c, Policy1)
	counts := map[EntryKind]int{}
	for _, e := range r.Schedule {
		counts[e.Kind]++
	}
	if counts[EntryLocal] != 1 {
		t.Errorf("local entries = %d, want 1", counts[EntryLocal])
	}
	if counts[EntryOpen] != 2 || counts[EntryClose] != 2 {
		t.Errorf("braid entries = %d open, %d close; want 2 and 2",
			counts[EntryOpen], counts[EntryClose])
	}
	for _, e := range r.Schedule {
		if e.Kind != EntryLocal && len(e.Path) < 2 {
			t.Errorf("braid entry for op %d has trivial path", e.Op)
		}
	}
}
