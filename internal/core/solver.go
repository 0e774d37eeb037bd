package core

import (
	"context"
	"fmt"
)

// stepper is the per-population step of one MVA variant. step solves
// population n into result row i (earlier rows are already committed) and
// mutates the stepper's own recursion state only on success, so a failed or
// cancelled step can be retried. step writes only what every population
// needs: X, R, Cycle and Residence (its scratch) of row i. fill writes the
// rest of the row — QueueLen, Util and, where they vary by row, Demands —
// from the post-step state, and runs only for rows the trajectory keeps, so
// a decimated run does not fill the rows it discards. The row index is passed separately from n
// because a decimated or chunked trajectory does not store row n-1 at index
// n-1. stop is the per-step cancellation probe (nil when non-cancellable);
// only steppers with inner fixed-point loops consult it. hooks is the
// solver's observer (nil when uninstrumented); steppers with inner fixed
// points report their iteration counts through it.
type stepper interface {
	step(res *Result, n, i int, stop func(int) error, hooks *SolveHooks) error
	// fill completes row i after a successful step, before the next step.
	fill(res *Result, i int)
	// release returns pooled scratch. The stepper must not be used after.
	release()
	// checkpoint deep-copies the stepper's recursion state into cp (steppers
	// whose steps are self-contained leave cp's state fields nil).
	checkpoint(cp *Checkpoint)
	// restore overwrites the stepper's recursion state from cp, validating
	// shapes; Solver.Restore guarantees it runs only on a fresh stepper.
	restore(cp *Checkpoint) error
	// rowState says how a decimated trajectory rebuilds this stepper's
	// recursion state at a stored row (see Result.CheckpointAt).
	rowState() rowState
	// history appends to buf the part of the post-step recursion state that
	// rowState cannot rebuild from the row (nothing for most steppers).
	history(buf []float64) []float64
}

// rowState rebuilds the recursion state at stored row i of a decimated
// trajectory into cp, from the row itself and hist, the state the stepper's
// history stored beside the row. Implementations hold only values derived
// from the model, never pooled solver scratch: a Result outlives its
// solver's Release.
type rowState interface {
	rebuild(cp *Checkpoint, r *Result, i int, hist []float64)
}

// queueRows is the state of the single-server recursions (exact, Schweitzer
// and single-server MVASD): the queue lengths the row stores.
type queueRows struct{}

func (queueRows) rebuild(cp *Checkpoint, r *Result, i int, _ []float64) {
	cp.Queue = append([]float64(nil), r.QueueLenRow(i)...)
}

// noHistory is the history of a stepper whose rows rebuild its whole state.
type noHistory struct{}

func (noHistory) history(buf []float64) []float64 { return buf }

// SolveHooks observes a Solver's progress. Every field is optional; a nil
// hooks pointer (the default) costs the hot loop a single nil check per
// population step, preserving the exact-MVA zero-allocation guarantee.
// Callbacks run synchronously on the solving goroutine and must be fast;
// they must not call back into the Solver.
type SolveHooks struct {
	// OnStep fires after population step n commits, with the step's
	// throughput — per-population progress for long solves.
	OnStep func(n int, x float64)
	// OnFixedPoint fires once per inner fixed-point resolution (Schweitzer's
	// queue-length iteration, MVASD's demand/throughput iteration) at
	// population n: iters iterations were executed and resid is the final
	// relative residual. converged=false reports a convergence failure (the
	// step returns an error immediately after).
	OnFixedPoint func(n, iters int, resid float64, converged bool)
}

// fixedPoint invokes OnFixedPoint when set; safe on a nil receiver.
func (h *SolveHooks) fixedPoint(n, iters int, resid float64, converged bool) {
	if h != nil && h.OnFixedPoint != nil {
		h.OnFixedPoint(n, iters, resid, converged)
	}
}

// Solver is a resumable MVA engine: it owns the recursion state of one
// algorithm over one model and grows its Result trajectory incrementally.
//
//	s, _ := NewExactMVASolver(m)
//	s.Run(100)     // solves n = 1..100
//	s.Extend(1500) // continues from the checkpoint: solves only 101..1500
//
// Extending never re-solves or copies the prefix, and the trajectory is
// bit-identical to a cold solve at the final population: the population
// recursion depends only on the previous step's state, never on the target.
//
// A Solver is not safe for concurrent use. Release returns its scratch
// buffers to the package pool; the Result remains valid afterwards.
type Solver struct {
	res      *Result
	alg      stepper
	hooks    *SolveHooks
	released bool
}

func newSolver(algorithm string, res *Result, alg stepper) *Solver {
	res.Algorithm = algorithm
	return &Solver{res: res, alg: alg}
}

// N returns the largest population solved so far (0 for a fresh solver,
// the seed checkpoint's population right after ResumeFrom). A decimated
// solver advances through every population, so N reports the recursion
// frontier, not the stored-row count.
func (s *Solver) N() int { return s.res.SolvedN() }

// SetHooks installs (or, with nil, clears) the solver's progress observer.
// Like the solver itself, SetHooks is not safe for concurrent use with a
// running Run/Extend; install hooks before starting and clear them after so
// a pooled solver does not retain callbacks from a finished request.
func (s *Solver) SetHooks(h *SolveHooks) { s.hooks = h }

// Result returns the trajectory solved so far. The same Result is grown in
// place by later Run/Extend calls; use Result().Prefix(n) for a stable
// snapshot.
func (s *Solver) Result() *Result { return s.res }

// Reserve pre-allocates trajectory capacity for a run up to population n so
// subsequent steps inside that capacity allocate nothing. Decimated solvers
// reserve only the rows they will store.
func (s *Solver) Reserve(n int) {
	if n > 0 {
		s.res.reserve(s.res.rowsForPop(n))
	}
}

// Decimate configures the solver to store only every stride-th population
// (plus each run's final population) while still advancing the recursion
// through every population — bounding a deep solve's memory at
// N/stride rows. The recursion state at every stored row is rebuilt from
// the row itself on demand (Result.CheckpointAt), with only its
// history-dependent remainder stored, so any skipped row is recoverable
// bit-identically by re-extending from the nearest stored row (see
// Result.Recover).
// Decimate must be called before the first Run; stride 1 is a no-op.
// Marginal-tracing multi-server solvers cannot be decimated (the trace is
// per-population and would misalign with the stored rows).
func (s *Solver) Decimate(stride int) error {
	if s.released {
		return fmt.Errorf("%w: decimate a released solver", ErrBadRun)
	}
	if stride < 1 {
		return fmt.Errorf("%w: decimation stride %d", ErrBadRun, stride)
	}
	if s.res.Len() != 0 {
		return fmt.Errorf("%w: decimate a solver already at population %d", ErrBadRun, s.res.SolvedN())
	}
	if stride == 1 {
		return nil
	}
	if ms, ok := s.alg.(*multiServerStepper); ok && ms.trace != nil {
		return fmt.Errorf("%w: decimate a marginal-tracing solver", ErrBadRun)
	}
	s.res.stride = stride
	s.res.state = s.alg.rowState()
	s.res.histEnd = make([]int, s.res.capRows) // Reserve may have run before the stride was set
	return nil
}

// ResumeFrom seeds a fresh solver with only the recursion state of cp — no
// trajectory rows — so a subsequent Run continues the population recursion
// at cp.N+1 with stored rows starting there (Result().BasePop() == cp.N).
// This is the distributed deep-solve primitive: a cluster member receives a
// checkpoint, solves its [cp.N+1, toN] chunk without ever holding the
// prefix, and ships its own final checkpoint on. Extending a resumed solver
// is bit-identical to the source solver solving the same populations.
func (s *Solver) ResumeFrom(cp *Checkpoint) error {
	if s.released {
		return fmt.Errorf("%w: resume a released solver", ErrBadRun)
	}
	if s.res.Len() != 0 || s.res.basePop != 0 {
		return fmt.Errorf("%w: resume a solver already at population %d (want fresh)", ErrBadRun, s.res.SolvedN())
	}
	if cp == nil {
		return fmt.Errorf("%w: resume needs a checkpoint", ErrBadRun)
	}
	if cp.Algorithm != s.res.Algorithm {
		return fmt.Errorf("%w: resume algorithm mismatch: checkpoint %q, solver %q",
			ErrBadRun, cp.Algorithm, s.res.Algorithm)
	}
	if cp.N < 0 {
		return fmt.Errorf("%w: resume from population %d", ErrBadRun, cp.N)
	}
	if err := s.alg.restore(cp); err != nil {
		return err
	}
	s.res.basePop = cp.N
	s.res.solvedN = cp.N
	return nil
}

// Run solves the recursion up to population maxN. Populations already solved
// are kept as-is; Run(maxN ≤ N()) is a no-op. Run is resumable: after an
// error (including cancellation in RunContext) the completed prefix remains
// valid and a later call continues from it. A decimated run cancelled between
// populations stores its frontier as its final row, like any run's last
// population; a step that fails stores nothing past the last kept row.
func (s *Solver) Run(maxN int) error { return s.RunContext(context.Background(), maxN) }

// Extend is Run, named for the resuming call site.
func (s *Solver) Extend(maxN int) error { return s.RunContext(context.Background(), maxN) }

// RunContext is Run with per-population-step cancellation (and, for MVASD's
// throughput mode, per-fixed-point-iteration cancellation).
func (s *Solver) RunContext(ctx context.Context, maxN int) error {
	if s.released {
		return fmt.Errorf("%w: solver already released", ErrBadRun)
	}
	if maxN < 1 {
		return fmt.Errorf("%w: population %d", ErrBadRun, maxN)
	}
	res := s.res
	if maxN <= res.SolvedN() {
		return nil
	}
	// The loop probes done itself; stop is the same probe for the
	// steppers' inner loops.
	stop := stepCancel(ctx)
	var done <-chan struct{}
	if stop != nil {
		done = ctx.Done()
	}
	res.reserve(res.rowsForPop(maxN))
	stride := max(res.stride, 1)
	// next is the next population the trajectory keeps: every stride-th
	// one, and maxN.
	next := min((res.solvedN/stride+1)*stride, maxN)
	for n := res.solvedN + 1; n <= maxN; n++ {
		if done != nil {
			select {
			case <-done:
				if res.staged {
					// The staged row holds the frontier n-1, which no later
					// step has touched yet: keep it as this run's final row,
					// so the trajectory never exposes an unfilled row.
					s.keep(len(res.N)-1, stride)
				}
				return cancelled(ctx, n)
			default:
			}
		}
		i := res.stageRow(n)
		if err := s.alg.step(res, n, i, stop, s.hooks); err != nil {
			res.dropStaged()
			return err
		}
		res.solvedN = n
		if n == next {
			s.keep(i, stride)
			next = min(next+stride, maxN)
		}
		if s.hooks != nil && s.hooks.OnStep != nil {
			s.hooks.OnStep(n, res.xBuf[i])
		}
	}
	return nil
}

// keep completes staged row i and commits it: fill writes the rest of the
// row from the post-step state, and a decimated trajectory stores beside it
// the history its recursion state cannot be rebuilt without.
func (s *Solver) keep(i, stride int) {
	res := s.res
	s.alg.fill(res, i)
	res.commitStaged()
	if stride > 1 {
		res.hist = s.alg.history(res.hist)
		res.histEnd[i] = len(res.hist)
	}
}

// Release returns the solver's scratch state to the package pool. The
// trajectory in Result stays valid; the solver itself must not be run again.
// Release is idempotent.
func (s *Solver) Release() {
	if s == nil || s.released {
		return
	}
	s.released = true
	s.alg.release()
}

// Trace returns the marginal-probability trace of a multi-server solver
// built with MultiServerOptions.TraceStation ≥ 0, or nil for every other
// configuration. The trace grows together with the trajectory.
func (s *Solver) Trace() *MarginalTrace {
	if ms, ok := s.alg.(*multiServerStepper); ok {
		return ms.trace
	}
	return nil
}

// runToCompletion is the shared body of the one-shot solver entry points:
// reserve, run under ctx, release scratch, and surface the Result only on
// success.
func runToCompletion(ctx context.Context, s *Solver, maxN int) (*Result, error) {
	defer s.Release()
	s.Reserve(maxN)
	if err := s.RunContext(ctx, maxN); err != nil {
		return nil, err
	}
	return s.Result(), nil
}
