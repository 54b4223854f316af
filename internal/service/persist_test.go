package service_test

import (
	"bytes"
	"context"
	"log"
	"testing"

	"surfcomm/internal/faultinject"
	"surfcomm/internal/service"
	"surfcomm/internal/store"
)

func openStore(t *testing.T, dir string, inj *faultinject.Injector) *store.Store {
	t.Helper()
	st, err := store.Open(dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRestartServesFromDisk is the tentpole acceptance property: a
// daemon restarted over the same store directory answers a
// previously-compiled digest as a cache hit read through from disk,
// without recompiling.
func TestRestartServesFromDisk(t *testing.T) {
	qasm := testQASM(t)
	dir := t.TempDir()
	req := service.Request{QASM: qasm}

	svc1 := newService(t, service.Config{Store: openStore(t, dir, nil)})
	first, err := svc1.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first compile reported cached")
	}
	svc1.Close() // flush the write-behind queue — the daemon's shutdown path

	// "Restart": a fresh service over a fresh store handle on the same
	// directory, empty in-memory LRU.
	svc2 := newService(t, service.Config{Store: openStore(t, dir, nil)})
	second, err := svc2.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("restarted service recompiled instead of serving from disk")
	}
	if second.Digest != first.Digest {
		t.Fatalf("digest changed across restart: %s vs %s", second.Digest, first.Digest)
	}
	if planDigest(second.Plan) != planDigest(first.Plan) {
		t.Fatal("disk-served plan differs from the originally compiled plan")
	}
	stats := svc2.Stats()
	if stats.DiskHits != 1 {
		t.Fatalf("DiskHits = %d, want 1", stats.DiskHits)
	}
	if stats.Misses != 0 {
		t.Fatalf("Misses = %d after a disk hit, want 0", stats.Misses)
	}
	// The disk hit was promoted into the LRU: a third request is a pure
	// memory hit.
	third, err := svc2.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached || svc2.Stats().DiskHits != 1 {
		t.Fatalf("promoted entry not served from memory (cached=%v disk_hits=%d)",
			third.Cached, svc2.Stats().DiskHits)
	}
}

// TestTornWriteRecoveryEndToEnd is the crash-recovery satellite at the
// service layer: a plan persisted through a torn write (the injected
// mid-write crash) is quarantined at reopen — never served — and a
// recompile repopulates the same digest with bytes identical to an
// uninjected control run.
func TestTornWriteRecoveryEndToEnd(t *testing.T) {
	qasm := testQASM(t)
	req := service.Request{QASM: qasm}

	// Control: a clean run of the same request, for byte comparison.
	controlDir := t.TempDir()
	controlStore := openStore(t, controlDir, nil)
	ctl := newService(t, service.Config{Store: controlStore})
	ctlRes, err := ctl.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Close()
	controlBytes, ok := controlStore.Get(ctlRes.Digest)
	if !ok {
		t.Fatal("control store has no entry after flush")
	}

	// Victim: every store write is torn mid-payload.
	inj := faultinject.New(1)
	if err := inj.Set(faultinject.TornWrite, 1); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	svc1 := newService(t, service.Config{Store: openStore(t, dir, inj)})
	res1, err := svc1.Compile(context.Background(), req)
	if err != nil {
		t.Fatalf("compile must succeed even when persistence tears: %v", err)
	}
	svc1.Close()

	// Reopen scans, quarantines the torn entry, and serves nothing
	// corrupt: the request recompiles fresh.
	st2 := openStore(t, dir, nil)
	if got := st2.Stats().Quarantined; got != 1 {
		t.Fatalf("quarantined = %d at reopen, want 1 torn entry", got)
	}
	if st2.Len() != 0 {
		t.Fatalf("store has %d live entries after quarantine, want 0", st2.Len())
	}
	svc2 := newService(t, service.Config{Store: st2})
	res2, err := svc2.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cached {
		t.Fatal("quarantined digest served as cached")
	}
	if res2.Digest != res1.Digest {
		t.Fatalf("digest changed after recovery: %s vs %s", res2.Digest, res1.Digest)
	}
	svc2.Close()

	// The repopulated entry is byte-identical to the control run — the
	// determinism the disk layer leans on.
	repop, ok := st2.Get(res2.Digest)
	if !ok {
		t.Fatal("store has no entry after recovery flush")
	}
	if string(repop) != string(controlBytes) {
		t.Fatalf("recovered entry differs from control:\n%s\nvs\n%s", repop, controlBytes)
	}
}

// TestRecordScheduleBypassesDisk pins the artifact rule: plans carrying
// recorded schedules are never persisted (the store keeps only the
// summary projection), so a disk hit can never serve an artifact-less
// plan to a request that asked for artifacts.
func TestRecordScheduleBypassesDisk(t *testing.T) {
	qasm := testQASM(t)
	dir := t.TempDir()
	st := openStore(t, dir, nil)
	svc := newService(t, service.Config{Store: st})

	res, err := svc.Compile(context.Background(), service.Request{QASM: qasm, RecordSchedule: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Braid == nil {
		t.Fatal("record_schedule compile returned no artifacts")
	}
	svc.Close()
	if st.Len() != 0 {
		t.Fatalf("store persisted %d entries for a record_schedule compile, want 0", st.Len())
	}

	// And the reverse guard: a restarted service asked for artifacts
	// must recompile even if the summary-only twin is on disk.
	svc2 := newService(t, service.Config{Store: openStore(t, dir, nil)})
	if _, err := svc2.Compile(context.Background(), service.Request{QASM: qasm}); err != nil {
		t.Fatal(err)
	}
	svc2.Close()
	svc3 := newService(t, service.Config{Store: openStore(t, dir, nil)})
	res3, err := svc3.Compile(context.Background(), service.Request{QASM: qasm, RecordSchedule: true})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Cached {
		t.Fatal("record_schedule request served from disk")
	}
	if res3.Plan.Braid == nil {
		t.Fatal("record_schedule recompile lost its artifacts")
	}
}

// TestInjectedStoreWriteFailureIsInvisible pins write-behind isolation:
// a store whose writes always fail still serves every request
// correctly — persistence errors cost only future warm starts.
func TestInjectedStoreWriteFailureIsInvisible(t *testing.T) {
	qasm := testQASM(t)
	inj := faultinject.New(1)
	if err := inj.Set(faultinject.StoreWriteError, 1); err != nil {
		t.Fatal(err)
	}
	st := openStore(t, t.TempDir(), inj)
	svc := newService(t, service.Config{Store: st})

	res, err := svc.Compile(context.Background(), service.Request{QASM: qasm})
	if err != nil {
		t.Fatalf("compile failed on a store write fault: %v", err)
	}
	again, err := svc.Compile(context.Background(), service.Request{QASM: qasm})
	if err != nil || !again.Cached {
		t.Fatalf("memory cache broken under store faults (err=%v cached=%v)", err, again.Cached)
	}
	if planDigest(res.Plan) != planDigest(again.Plan) {
		t.Fatal("served plans diverged")
	}
	svc.Close()
	if st.Len() != 0 {
		t.Fatalf("store has %d entries despite every write failing", st.Len())
	}
	if st.Stats().PutErrors == 0 {
		t.Fatal("no put errors counted despite injection")
	}
}

// TestDrainReadiness pins the probe split at the service layer: Ready
// flips to "draining" after Drain while the rest of the API keeps
// answering (the HTTP pair is covered in http_test.go).
func TestDrainReadiness(t *testing.T) {
	svc := newService(t, service.Config{})
	if ready, reason := svc.Ready(); !ready {
		t.Fatalf("fresh service not ready: %s", reason)
	}
	svc.Drain()
	ready, reason := svc.Ready()
	if ready {
		t.Fatal("draining service still ready")
	}
	if reason != "draining" {
		t.Fatalf("reason = %q, want draining", reason)
	}
}

// TestEmptyPlanNotPersisted compiles an empty circuit, whose plan has
// 0 cycles on every backend. The store would refuse that plan on read,
// so it is never written: across a restart both compiles are plain
// misses, the store takes no entry, and nothing is logged.
func TestEmptyPlanNotPersisted(t *testing.T) {
	var logged bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&logged)
	t.Cleanup(func() { log.SetOutput(prev) })

	dir := t.TempDir()
	req := service.Request{QASM: "qubits 2\n"}
	for run := 1; run <= 2; run++ {
		svc := newService(t, service.Config{Store: openStore(t, dir, nil)})
		resp, err := svc.Compile(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		svc.Close()
		if resp.Cached || resp.Plan.Cycles != 0 {
			t.Fatalf("run %d: cached=%v cycles=%d, want an uncached 0-cycle plan", run, resp.Cached, resp.Plan.Cycles)
		}
		if st := svc.Stats(); st.Misses != 1 || st.DiskHits != 0 {
			t.Fatalf("run %d: misses=%d disk_hits=%d, want 1 and 0", run, st.Misses, st.DiskHits)
		}
		if st := svc.StoreStats(); st.Puts != 0 || st.Hits != 0 {
			t.Fatalf("run %d: store puts=%d hits=%d, want 0 and 0", run, st.Puts, st.Hits)
		}
	}
	if logged.Len() > 0 {
		t.Fatalf("empty plan logged:\n%s", logged.String())
	}
}
