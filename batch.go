package surfcomm

import (
	"cmp"
	"context"
	"fmt"

	"surfcomm/internal/sweep"
)

// CompileRequest is one unit of a batch compile: a circuit, the backend
// to lower it with, and an optional per-request target adjustment. The
// serving access pattern (many requests, few distinct circuit/target
// pairs — §7's fixed workload suite over varying targets) arrives as
// slices of these.
type CompileRequest struct {
	// Backend names the compiling backend ("braid", "planar",
	// "surgery"); empty selects "braid". Unknown names fail the request
	// with an error matching ErrBadConfig.
	Backend string
	// Circuit is the logical program to lower.
	Circuit *Circuit
	// Override optionally adjusts the toolchain's target for this
	// request only (a different distance, device, window…). It must not
	// retain the *Target past the call.
	Override func(*Target)
}

// CompileResult is one batch slot: the plan, or the error that failed
// this request. Exactly one of the two is meaningful — a successful
// result has a non-empty Plan.Backend and a nil Err.
type CompileResult struct {
	Plan Plan
	Err  error
}

// CompileBatch compiles every request across the WithWorkers pool and
// returns the results in request order — slot i always answers
// request i, at any worker count, and the plans are bit-identical to
// serial Compile calls (compiles derive all randomness from explicit
// seeds). Per-request failures land in their slot's Err and never
// abort the rest of the batch; a canceled context stops the pool and
// marks the unprocessed slots with errors matching ErrCanceled.
//
// Progress events are emitted with Stage "batch", one per completed
// request.
func (tc *Toolchain) CompileBatch(ctx context.Context, reqs []CompileRequest) []CompileResult {
	label := func(i int) string {
		circ := "<nil>"
		if reqs[i].Circuit != nil {
			circ = reqs[i].Circuit.Name
		}
		return fmt.Sprintf("%s/%s", cmp.Or(reqs[i].Backend, "braid"), circ)
	}
	return sweep.MapFill(ctx, tc.sweepOpts("batch", label), reqs,
		func(_ int, req CompileRequest) CompileResult {
			b, err := BackendByName(cmp.Or(req.Backend, "braid"))
			if err != nil {
				return CompileResult{Err: err}
			}
			plan, err := tc.compile(ctx, b, req.Circuit, req.Override)
			return CompileResult{Plan: plan, Err: err}
		},
		func(err error) CompileResult { return CompileResult{Err: err} })
}
