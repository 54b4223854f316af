package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"surfcomm/internal/scerr"
)

func TestMapPreservesOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 3, 16, 0} {
		out, err := Map(context.Background(), Options{Workers: workers}, items, func(i, item int) (int, error) {
			return item * item, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), Options{}, nil, func(i, item int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty map: out=%v err=%v", out, err)
	}
}

// The error surface must be deterministic: whatever the worker count,
// the reported error is the lowest-indexed failing cell's.
func TestMapFirstErrorDeterministic(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, workers := range []int{1, 4, 8} {
		_, err := Map(context.Background(), Options{Workers: workers}, items, func(i, item int) (int, error) {
			if item%2 == 1 {
				return 0, fmt.Errorf("cell %d failed", item)
			}
			return item, nil
		})
		if err == nil || err.Error() != "cell 1 failed" {
			t.Fatalf("workers=%d: err = %v, want cell 1 failed", workers, err)
		}
	}
}

func TestMapPartialResultsOnError(t *testing.T) {
	out, err := Map(context.Background(), Options{Workers: 2}, []int{1, 2, 3}, func(i, item int) (int, error) {
		if item == 2 {
			return 0, errors.New("boom")
		}
		return item * 10, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if out[0] != 10 || out[2] != 30 {
		t.Fatalf("partial results lost: %v", out)
	}
}

// JSON records must serialize identically across runs so BENCH_*.json
// diffs only move when the science moves.
func TestWriteRecordsStable(t *testing.T) {
	cells := []CellResult{
		{Study: "figure6", Cell: "IM/policy6", Seed: 1,
			Metrics: map[string]float64{"ratio": 2.41, "util": 0.27, "cycles": 9000}},
		{Study: "epr", Cell: "SQ/window=88", Seed: 1,
			Metrics: map[string]float64{"peak_live_epr": 12, "stall_cycles": 0}},
	}
	var a, b bytes.Buffer
	if err := WriteRecords(&a, cells); err != nil {
		t.Fatal(err)
	}
	if err := WriteRecords(&b, cells); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("record encoding is not stable")
	}
	if !bytes.Contains(a.Bytes(), []byte(`"cycles": 9000`)) {
		t.Errorf("unexpected encoding:\n%s", a.String())
	}
}

// A canceled context must stop the pool before uncomputed cells run,
// surface an error matching scerr.ErrCanceled, and still serialize any
// progress callbacks that did fire.
func TestMapCancellation(t *testing.T) {
	items := make([]int, 64)
	ctx, cancel := context.WithCancel(context.Background())
	completed := 0
	opt := Options{Workers: 2, Progress: func(i, total int) {
		completed++ // serialized by the runner
		if total != len(items) {
			t.Errorf("progress total = %d, want %d", total, len(items))
		}
		cancel()
	}}
	ran := atomic.Int64{}
	_, err := Map(ctx, opt, items, func(i, item int) (int, error) {
		ran.Add(1)
		time.Sleep(time.Millisecond)
		return item, nil
	})
	if !errors.Is(err, scerr.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if n := ran.Load(); n == 0 || n > 4 {
		t.Errorf("%d cells ran after cancellation, want 1..4", n)
	}
	if completed == 0 {
		t.Error("no progress events delivered")
	}
}

// A pre-canceled context runs nothing at all.
func TestMapPrecanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := atomic.Int64{}
	_, err := Map(ctx, Options{Workers: 4}, make([]int, 16), func(i, item int) (int, error) {
		ran.Add(1)
		return item, nil
	})
	if !errors.Is(err, scerr.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d cells ran under a pre-canceled context", ran.Load())
	}
}
