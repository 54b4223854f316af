package service_test

import (
	"context"
	"strings"
	"testing"

	"surfcomm"
	"surfcomm/internal/service"
)

// gseRequest is a compile request for the GSE circuit over m+1 qubits,
// the shape of serve-hot's corpus.
func gseRequest(t testing.TB, m int) service.Request {
	t.Helper()
	circ, err := surfcomm.NewGSE(surfcomm.GSEConfig{M: m, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	var qasm strings.Builder
	if err := surfcomm.WriteQASM(&qasm, circ); err != nil {
		t.Fatal(err)
	}
	return service.Request{QASM: qasm.String()}
}

// BenchmarkRoutingKey is the router's front end per request.
func BenchmarkRoutingKey(b *testing.B) {
	req := gseRequest(b, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := service.RoutingKey(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileHit is a replica's whole answer to a request its LRU
// holds.
func BenchmarkCompileHit(b *testing.B) {
	tc, err := surfcomm.NewToolchain(surfcomm.WithDistance(5), surfcomm.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	svc := service.New(tc, service.Config{})
	defer svc.Close()
	req := gseRequest(b, 40)
	ctx := context.Background()
	if _, err := svc.Compile(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err := svc.Compile(ctx, req); err != nil || !res.Cached {
			b.Fatalf("hit: cached=%t, %v", res.Cached, err)
		}
	}
}
