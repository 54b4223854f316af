//go:build !race

// The race detector drops pooled buffers at random, so these pins only
// hold without it.

package service_test

import (
	"context"
	"testing"

	"surfcomm/internal/service"
)

// TestHitPathAllocsIndependentOfCircuit: nothing on the cache-hit path
// grows with the circuit. RoutingKey and an LRU-hit Compile allocate as
// often on GSE-40 as on GSE-8.
func TestHitPathAllocsIndependentOfCircuit(t *testing.T) {
	svc := newService(t, service.Config{})
	ctx := context.Background()
	allocs := func(m int) (key, hit float64) {
		req := gseRequest(t, m)
		if _, err := svc.Compile(ctx, req); err != nil {
			t.Fatal(err)
		}
		key = testing.AllocsPerRun(50, func() {
			if _, err := service.RoutingKey(req); err != nil {
				t.Fatal(err)
			}
		})
		hit = testing.AllocsPerRun(50, func() {
			if res, err := svc.Compile(ctx, req); err != nil || !res.Cached {
				t.Fatalf("GSE-%d hit: cached=%t, %v", m, res.Cached, err)
			}
		})
		return key, hit
	}
	smallKey, smallHit := allocs(8)
	largeKey, largeHit := allocs(40)
	if smallKey != largeKey {
		t.Errorf("RoutingKey allocates %v times on GSE-8 but %v on GSE-40", smallKey, largeKey)
	}
	if smallHit != largeHit {
		t.Errorf("an LRU-hit Compile allocates %v times on GSE-8 but %v on GSE-40", smallHit, largeHit)
	}
	t.Logf("allocs per call: RoutingKey %v, LRU-hit Compile %v", largeKey, largeHit)
}
