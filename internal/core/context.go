package core

import (
	"context"
	"fmt"

	"repro/internal/queueing"
)

// The *WithContext solver variants accept a context whose cancellation or
// deadline aborts the recursion between population steps (and, for MVASD's
// throughput mode, between fixed-point iterations). The plain entry points
// remain non-cancellable and allocate nothing extra. A caller that needs
// cancellation for another algorithm runs its resumable Solver with
// RunContext, as the solver service (internal/server) does.

// stepCancel returns a cheap per-step cancellation probe for ctx, or nil when
// the context can never be cancelled (context.Background() and friends), so
// the hot loops pay a single nil check in the common case.
func stepCancel(ctx context.Context) func(n int) error {
	if ctx == nil {
		return nil
	}
	done := ctx.Done()
	if done == nil {
		return nil
	}
	return func(n int) error {
		select {
		case <-done:
			return cancelled(ctx, n)
		default:
			return nil
		}
	}
}

// cancelled is the error of a solve whose ctx ended at population n.
func cancelled(ctx context.Context, n int) error {
	return fmt.Errorf("core: solve cancelled at population %d: %w", n, context.Cause(ctx))
}

// ExactMVAMultiServerWithContext is ExactMVAMultiServer with
// per-population-step cancellation.
func ExactMVAMultiServerWithContext(ctx context.Context, m *queueing.Model, maxN int, opts MultiServerOptions) (*Result, *MarginalTrace, error) {
	return exactMVAMultiServer(ctx, m, maxN, opts)
}

// MVASDWithContext is MVASD with cancellation checked at every population
// step and, in the demand-vs-throughput mode, at every fixed-point iteration,
// so even a slowly converging step aborts promptly.
func MVASDWithContext(ctx context.Context, m *queueing.Model, maxN int, dm DemandModel, opts MVASDOptions) (*Result, error) {
	return mvasd(ctx, m, maxN, dm, opts)
}
