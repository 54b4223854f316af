// Package sweep is the worker pool and the record writer behind the
// evaluation studies, batch compiles and parallel module compiles. A
// grid's cells are independent, so Map fans them across a bounded pool
// while keeping every result in submission order: a parallel run is
// bit-identical to a serial one. The package knows nothing of what a
// cell computes; the surfcomm studies compile their cells through the
// Backends and hand the pool one function per grid.
//
// Determinism rules:
//
//   - Cell functions receive their index and must derive any randomness
//     from explicit seeds, never from the order cells complete in.
//   - Results land in a slice slot owned by the cell, never appended
//     from racing goroutines.
//   - Errors are reported by the lowest-indexed failing cell, so the
//     error surface is deterministic too.
//
// Every run takes a context: workers stop claiming cells once it is
// canceled (an abort surfaces as an error matching scerr.ErrCanceled
// and wastes at most one in-flight cell per worker), and Options can
// carry a progress callback so callers stream partial grid results.
//
// record.go serializes per-cell results as stable JSON, so benchmark
// trajectories (BENCH_*.json) can be tracked across revisions.
package sweep

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"surfcomm/internal/scerr"
)

// Options tunes a sweep run.
type Options struct {
	// Workers bounds the worker pool; <= 0 selects GOMAXPROCS.
	Workers int
	// Progress, when non-nil, is invoked once per completed cell with
	// the cell's index and the grid size. Calls are serialized (never
	// concurrent) but may arrive out of index order on a pooled run.
	Progress func(index, total int)
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// MapFill evaluates the infallible fn over every item on the pool,
// always returning one output per item: per-item failures are fn's
// business (encoded in O), and when the pool itself aborts — a
// canceled context stops workers from claiming cells — every slot no
// worker ran is filled with fill(abortErr) instead of a zero value.
// This is the batch-serving primitive: request order is preserved at
// any worker count and nothing short of cancellation is fatal.
func MapFill[I, O any](ctx context.Context, opt Options, items []I, fn func(i int, item I) O, fill func(err error) O) []O {
	// processed records which slots a worker actually ran; each worker
	// owns its index and Map drains the pool before returning, so the
	// flags are safely read afterwards.
	processed := make([]bool, len(items))
	out, err := Map(ctx, opt, items, func(i int, item I) (O, error) {
		processed[i] = true
		return fn(i, item), nil
	})
	if err != nil {
		for i := range out {
			if !processed[i] {
				out[i] = fill(err)
			}
		}
	}
	return out
}

// Map evaluates fn over every item on a pool of workers, returning the
// outputs in item order. It is the primitive under all grids: cell i's
// output lands in slot i, and on failure the error of the
// lowest-indexed failing cell is returned (alongside the partial
// results), so parallel and serial runs fail identically. Workers check
// the context before claiming each cell, so a cancellation aborts the
// grid within a bounded number of in-flight cells and the pool's
// goroutines always drain before Map returns.
func Map[I, O any](ctx context.Context, opt Options, items []I, fn func(i int, item I) (O, error)) ([]O, error) {
	out := make([]O, len(items))
	if len(items) == 0 {
		return out, nil
	}
	errs := make([]error, len(items))
	var progressMu sync.Mutex
	report := func(i int) {
		if opt.Progress == nil {
			return
		}
		progressMu.Lock()
		opt.Progress(i, len(items))
		progressMu.Unlock()
	}
	done := ctx.Done()
	canceled := func() bool {
		if done == nil {
			return false
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	workers := opt.workers()
	if workers > len(items) {
		workers = len(items)
	}
	var aborted atomic.Bool
	if workers <= 1 {
		for i := range items {
			if canceled() {
				aborted.Store(true)
				break
			}
			out[i], errs[i] = fn(i, items[i])
			report(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					if canceled() {
						aborted.Store(true)
						return
					}
					i := int(next.Add(1)) - 1
					if i >= len(items) {
						return
					}
					out[i], errs[i] = fn(i, items[i])
					report(i)
				}
			}()
		}
		wg.Wait()
	}
	if err := firstError(errs); err != nil {
		return out, err
	}
	if aborted.Load() {
		return out, scerr.Canceled(ctx)
	}
	return out, nil
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
