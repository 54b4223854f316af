package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"surfcomm"
	"surfcomm/internal/service"
)

// pipelineQASM renders the n-stage pipeline program (optionally with
// one mutated stage) in the hierarchical dialect.
func pipelineQASM(t *testing.T, n, variant int) string {
	t.Helper()
	p, err := surfcomm.PipelineProgram(n)
	if err != nil {
		t.Fatal(err)
	}
	if variant > 0 {
		if p, err = surfcomm.MutateModule(p, "stageb", variant); err != nil {
			t.Fatal(err)
		}
	}
	return surfcomm.ProgramQASMString(p)
}

// TestHierarchicalCompileThroughService: a hierarchical request
// compiles through the modular path, carries provenance, and repeats
// as a program-level cache hit.
func TestHierarchicalCompileThroughService(t *testing.T) {
	svc := newService(t, service.Config{})
	req := service.Request{QASM: pipelineQASM(t, 4, 0)}

	first, err := svc.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("cold hierarchical compile reported cached")
	}
	if first.Plan.Modular == nil {
		t.Fatal("hierarchical compile lost Modular provenance")
	}
	if got := len(first.Plan.Modular.Compiled); got != 5 {
		t.Fatalf("compiled %d modules, want 5 (entry + 4 stages)", got)
	}

	second, err := svc.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.Digest != first.Digest {
		t.Fatalf("repeat request: cached=%t digest match=%t", second.Cached, second.Digest == first.Digest)
	}

	stats := svc.Stats()
	if stats.ModuleMisses != 5 || stats.ModuleHits != 0 {
		t.Fatalf("module hits/misses = %d/%d, want 0/5", stats.ModuleHits, stats.ModuleMisses)
	}
}

// TestModuleCacheSurvivesProgramEdit: editing one stage misses at the
// program layer but reuses every unchanged module from the module
// layer — the serving-side incremental contract.
func TestModuleCacheSurvivesProgramEdit(t *testing.T) {
	svc := newService(t, service.Config{})
	if _, err := svc.Compile(context.Background(), service.Request{QASM: pipelineQASM(t, 4, 0)}); err != nil {
		t.Fatal(err)
	}
	base := svc.Stats()

	edited, err := svc.Compile(context.Background(), service.Request{QASM: pipelineQASM(t, 4, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if edited.Cached {
		t.Fatal("edited program served from program cache")
	}
	if got := edited.Plan.Modular.Compiled; len(got) != 1 || got[0] != "stageb" {
		t.Fatalf("edited program recompiled %v, want [stageb]", got)
	}
	stats := svc.Stats()
	if hits := stats.ModuleHits - base.ModuleHits; hits != 4 {
		t.Fatalf("module hits after edit = %d, want 4", hits)
	}
	if misses := stats.ModuleMisses - base.ModuleMisses; misses != 1 {
		t.Fatalf("module misses after edit = %d, want 1", misses)
	}
}

// TestModulePlansPersistAcrossRestart: module plans read through from
// the disk store, so a restarted daemon recompiles nothing even for a
// program digest it has never served.
func TestModulePlansPersistAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	svc1 := newService(t, service.Config{Store: openStore(t, dir, nil)})
	if _, err := svc1.Compile(context.Background(), service.Request{QASM: pipelineQASM(t, 4, 0)}); err != nil {
		t.Fatal(err)
	}
	svc1.Close()

	svc2 := newService(t, service.Config{Store: openStore(t, dir, nil)})
	// An *edited* program: program digest never compiled anywhere, but
	// 4 of 5 modules are on disk.
	res, err := svc2.Compile(context.Background(), service.Request{QASM: pipelineQASM(t, 4, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Plan.Modular.Compiled; len(got) != 1 || got[0] != "stageb" {
		t.Fatalf("restarted service recompiled %v, want [stageb]", got)
	}
	stats := svc2.Stats()
	if stats.ModuleDiskHits != 4 {
		t.Fatalf("ModuleDiskHits = %d, want 4", stats.ModuleDiskHits)
	}
	// The program itself missed disk; its modules' disk reads count only
	// in ModuleDiskHits.
	if stats.DiskHits != 0 || stats.Misses != 1 {
		t.Fatalf("DiskHits = %d, Misses = %d, want 0 and 1", stats.DiskHits, stats.Misses)
	}
}

// TestHierarchicalRoutingKeyCanonical: whitespace/comment variants of
// one hierarchical program share a routing key; distinct programs
// split.
func TestHierarchicalRoutingKeyCanonical(t *testing.T) {
	text := pipelineQASM(t, 3, 0)
	k1, err := service.RoutingKey(service.Request{QASM: text})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := service.RoutingKey(service.Request{QASM: "# comment\n\n" + text})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("cosmetic variant split the routing key")
	}
	k3, err := service.RoutingKey(service.Request{QASM: pipelineQASM(t, 3, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k3 {
		t.Error("distinct programs share a routing key")
	}
}

// TestHierarchicalEstimate: /estimate flattens hierarchical programs.
func TestHierarchicalEstimate(t *testing.T) {
	svc := newService(t, service.Config{})
	est, err := svc.Estimate(service.Request{QASM: pipelineQASM(t, 3, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if est.LogicalOps <= 0 {
		t.Fatalf("estimate over hierarchical program: %+v", est)
	}
}

// TestHierarchicalBadProgramRejected: recursion is a 4xx-class config
// error, not a compile failure.
func TestHierarchicalBadProgramRejected(t *testing.T) {
	svc := newService(t, service.Config{})
	qasm := "entry a\nmodule a 1\ncall b q0\nmodule b 1\ncall a q0\n"
	if _, err := svc.Compile(context.Background(), service.Request{QASM: qasm}); err == nil {
		t.Fatal("recursive program compiled")
	}
	if _, err := service.RoutingKey(service.Request{QASM: qasm}); err == nil {
		t.Fatal("recursive program routed")
	}
}

// doubledChainQASM is a hierarchical program whose module k calls
// module k-1 twice: about 45 bytes a level, yet it executes 2^depth
// leaf gates.
func doubledChainQASM(depth int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "entry m%d\n", depth)
	for k := depth; k > 0; k-- {
		fmt.Fprintf(&b, "module m%d 2\ncall m%d q0,q1\ncall m%d q0,q1\n", k, k-1, k-1)
	}
	b.WriteString("module m0 2\ncnot q0,q1\n")
	return b.String()
}

// within runs fn in a goroutine and fails the test if it has not
// returned after d, so a hang fails instead of wedging the run.
func within(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("still running after %v", d)
	}
}

// TestDeepCallChainCompilesPromptly: a 40-level doubled chain (2^40
// leaf executions in under 2 KB) compiles in linear time — module
// compiles and the linker never walk the expanded call tree.
func TestDeepCallChainCompilesPromptly(t *testing.T) {
	svc := newService(t, service.Config{})
	within(t, 5*time.Second, func() {
		res, err := svc.Compile(context.Background(), service.Request{QASM: doubledChainQASM(40)})
		if err != nil {
			t.Errorf("depth-40 chain: %v", err)
			return
		}
		if got, want := res.Plan.Modular.CallExecutions, int64(1)<<41-2; got != want {
			t.Errorf("call executions = %d, want %d", got, want)
		}
	})
}

// TestHierarchicalBlowupAnswers400: a chain that flattens past the
// flatten cap (/estimate) or whose call multiplicities overflow int64
// (/compile) is a 400 configuration error, answered promptly.
func TestHierarchicalBlowupAnswers400(t *testing.T) {
	h := service.NewHandler(newService(t, service.Config{}))
	for _, c := range []struct {
		path  string
		depth int
	}{{"/estimate", 21}, {"/compile", 64}} {
		body, _ := json.Marshal(service.Request{QASM: doubledChainQASM(c.depth)})
		rec := httptest.NewRecorder()
		within(t, 5*time.Second, func() {
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(body)))
		})
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s of a depth-%d chain: status %d, want 400 (body %s)", c.path, c.depth, rec.Code, rec.Body)
		}
	}
}
