package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/queueing"
)

// MVASDOptions tunes Algorithm 3.
type MVASDOptions struct {
	// MultiServerOptions embeds the Algorithm-2 step options (verbatim
	// probabilities, marginal tracing).
	MultiServerOptions
	// FixedPointTol is the relative throughput tolerance of the per-step
	// fixed point used when the demand model depends on X (default 1e-10).
	FixedPointTol float64
	// FixedPointMaxIter caps the per-step iterations (default 200).
	FixedPointMaxIter int
	// Damping in (0, 1] scales the throughput update of the fixed point
	// (default 0.5); lower values are more robust for steep demand curves.
	Damping float64
}

func (o *MVASDOptions) defaults() {
	if o.FixedPointTol <= 0 {
		o.FixedPointTol = 1e-10
	}
	if o.FixedPointMaxIter <= 0 {
		o.FixedPointMaxIter = 200
	}
	if o.Damping <= 0 || o.Damping > 1 {
		o.Damping = 0.5
	}
}

// validateDemandModel performs the MVASD-specific entry checks.
func validateDemandModel(m *queueing.Model, dm DemandModel) error {
	if dm == nil {
		return fmt.Errorf("%w: nil demand model", ErrBadRun)
	}
	if dm.Stations() != len(m.Stations) {
		return fmt.Errorf("%w: demand model covers %d stations, model has %d",
			ErrBadRun, dm.Stations(), len(m.Stations))
	}
	return nil
}

// mvasdStepper is the resumable form of Algorithm 3. In throughput mode each
// step runs its fixed point on the trial state double-buffer, so the
// committed state is only advanced by a converged step — a failed or
// cancelled step leaves the prefix resumable.
//
// Past the last sample the paper's demand curves are pegged (eq. 14): from
// population steady on (CurveDemands.steady; 0 when never) a step reuses the
// demands it evaluated last instead of calling the demand model, and the
// step is Algorithm 2's.
type mvasdStepper struct {
	m      *queueing.Model
	dm     DemandModel
	opts   MVASDOptions
	st     *multiServerState
	trial  *multiServerState // fixed-point scratch, reused every iteration
	dems   []float64
	per    []float64 // dems[k]/C_k, computed with dems
	x      float64   // previous step's throughput: warm start for the fixed point
	steady int
	pegged bool // dems hold the steady demands
}

// demandsAt evaluates every station's demand at population n and
// throughput x, and its per-server share.
func (s *mvasdStepper) demandsAt(n int, x float64) {
	for k := range s.dems {
		s.dems[k] = s.dm.DemandAt(k, n, x)
	}
	s.st.perServer(s.dems, s.per)
}

func (s *mvasdStepper) step(res *Result, n, row int, stop func(int) error, hooks *SolveHooks) error {
	m, demands := s.m, s.dems
	if s.trial == nil { // demands depend on n alone
		if !s.pegged {
			s.demandsAt(n, 0)
			s.pegged = s.steady > 0 && n >= s.steady
		}
		xn, rTotal := multiServerStep(m, s.st, demands, s.per, n, s.opts.Verbatim, res.ResidenceRow(row))
		setRowTotals(res, m, row, xn, rTotal)
		s.x = xn
		return nil
	}
	// Fixed point: demands depend on the throughput this step produces.
	guess := s.x
	if guess <= 0 {
		// Cold start: optimistic zero-queue estimate at n=1 demands.
		s.demandsAt(n, 0)
		sum := 0.0
		for _, d := range demands {
			sum += d
		}
		guess = float64(n) / (sum + m.ThinkTime)
	}
	resid := 0.0
	for iter := 0; iter < s.opts.FixedPointMaxIter; iter++ {
		if stop != nil {
			if err := stop(n); err != nil {
				return err
			}
		}
		s.demandsAt(n, guess)
		s.trial.copyFrom(s.st)
		xn, rTotal := multiServerStep(m, s.trial, demands, s.per, n, s.opts.Verbatim, res.ResidenceRow(row))
		resid = math.Abs(xn-guess) / math.Max(guess, 1e-12)
		if math.Abs(xn-guess) <= s.opts.FixedPointTol*math.Max(guess, 1e-12) {
			s.st, s.trial = s.trial, s.st
			setRowTotals(res, m, row, xn, rTotal)
			s.x = xn
			hooks.fixedPoint(n, iter+1, resid, true)
			return nil
		}
		guess += s.opts.Damping * (xn - guess)
	}
	hooks.fixedPoint(n, s.opts.FixedPointMaxIter, resid, false)
	return fmt.Errorf("%w: demand/throughput fixed point did not converge at n=%d", ErrBadRun, n)
}

// fill reads the demands of the step just committed: a throughput-mode
// step leaves the converged iteration's demands in s.dems.
func (s *mvasdStepper) fill(res *Result, row int) {
	fillVaryingRow(res, s.m, row, s.st.queue, s.dems)
}

func (s *mvasdStepper) release() {
	s.st.release()
	if s.trial != nil {
		s.trial.release()
	}
	putVec(s.dems) // and per, its pair
	s.dems, s.per = nil, nil
}

func (s *mvasdStepper) checkpoint(cp *Checkpoint) {
	s.st.materialize()
	cp.Queue = append([]float64(nil), s.st.queue...)
	cp.Marginal = cloneVecs(s.st.p)
	cp.X = s.x
}

func (s *mvasdStepper) restore(cp *Checkpoint) error {
	if err := s.st.restore(cp); err != nil {
		return err
	}
	s.x, s.pegged = cp.X, false
	return nil
}

// rowState rebuilds the throughput too: it is the fixed point's warm start.
func (s *mvasdStepper) rowState() rowState { return s.st.rowState(true, s.opts.Verbatim) }

func (s *mvasdStepper) history(buf []float64) []float64 {
	return s.st.history(buf, s.opts.Verbatim)
}

// NewMVASDSolver returns a resumable Algorithm-3 solver: demands come from
// dm at every population step (the model's station demands are ignored).
func NewMVASDSolver(m *queueing.Model, dm DemandModel, opts MVASDOptions) (*Solver, error) {
	if err := m.ValidateShape(); err != nil {
		return nil, err
	}
	if err := validateDemandModel(m, dm); err != nil {
		return nil, err
	}
	opts.defaults()
	dems, per := getVecPair(len(m.Stations))
	alg := &mvasdStepper{
		m:    m,
		dm:   dm,
		opts: opts,
		st:   newMultiServerState(m),
		dems: dems,
		per:  per,
	}
	name := "mvasd"
	if dm.DependsOnThroughput() {
		name = "mvasd-vs-throughput"
		alg.trial = newMultiServerState(m)
	} else if cd, ok := dm.(*CurveDemands); ok {
		alg.steady = cd.steady
	}
	return newSolver(name, newEmptyResult(name, m, nil), alg), nil
}

// MVASD solves the network with the paper's Algorithm 3: exact multi-server
// MVA in which the service demand of every station is re-evaluated at each
// population step from an interpolated array of measured demands,
//
//	SS_k^n = h(a_k, b_k, n)
//	R_k    = (SS_k^n / C_k)·(1 + Q_k + F_k)       (eq. 11)
//
// The model's station demands are ignored; demands come from the
// DemandModel (visit counts are considered folded into the demands, per the
// Service Demand Law). When the demand model depends on throughput
// (Section-7 mode), each step solves the demand/throughput fixed point by
// damped iteration before committing the recursion state.
func MVASD(m *queueing.Model, maxN int, dm DemandModel, opts MVASDOptions) (*Result, error) {
	return mvasd(context.Background(), m, maxN, dm, opts)
}

func mvasd(ctx context.Context, m *queueing.Model, maxN int, dm DemandModel, opts MVASDOptions) (*Result, error) {
	s, err := NewMVASDSolver(m, dm, opts)
	if err != nil {
		return nil, err
	}
	return runToCompletion(ctx, s, maxN)
}

// mvasdSingleStepper is the Fig.-8 baseline step: eq. 8 with demands
// normalised by the server count.
type mvasdSingleStepper struct {
	noHistory
	m    *queueing.Model
	dm   DemandModel
	q    []float64
	dems []float64
}

func (s *mvasdSingleStepper) step(res *Result, n, row int, _ func(int) error, _ *SolveHooks) error {
	m, dm, q, demands := s.m, s.dm, s.q, s.dems
	rTotal := 0.0
	resid := res.ResidenceRow(row)
	for i, stn := range m.Stations {
		demands[i] = dm.DemandAt(i, n, 0)
		norm := demands[i] / float64(stn.Servers)
		if stn.Kind == queueing.Delay {
			resid[i] = demands[i]
		} else {
			resid[i] = norm * (1 + q[i])
		}
		rTotal += resid[i]
	}
	x := float64(n) / (rTotal + m.ThinkTime)
	for i := range q {
		q[i] = x * resid[i]
	}
	res.X[row] = x
	res.R[row] = rTotal
	res.Cycle[row] = rTotal + m.ThinkTime
	return nil
}

func (s *mvasdSingleStepper) fill(res *Result, row int) {
	fillVaryingRow(res, s.m, row, s.q, s.dems)
}

func (s *mvasdSingleStepper) release() {
	putVec(s.q)
	putVec(s.dems)
	s.q, s.dems = nil, nil
}

func (s *mvasdSingleStepper) checkpoint(cp *Checkpoint) {
	cp.Queue = append([]float64(nil), s.q...)
}

func (s *mvasdSingleStepper) restore(cp *Checkpoint) error {
	return copyQueue(s.q, cp.Queue)
}

func (s *mvasdSingleStepper) rowState() rowState { return queueRows{} }

// NewMVASDSingleServerSolver returns a resumable solver for the paper's
// single-server MVASD baseline.
func NewMVASDSingleServerSolver(m *queueing.Model, dm DemandModel, opts MVASDOptions) (*Solver, error) {
	if err := m.ValidateShape(); err != nil {
		return nil, err
	}
	if err := validateDemandModel(m, dm); err != nil {
		return nil, err
	}
	opts.defaults()
	k := len(m.Stations)
	return newSolver("mvasd-single-server", newEmptyResult("mvasd-single-server", m, nil),
		&mvasdSingleStepper{m: m, dm: dm, q: getVec(k), dems: getVec(k)}), nil
}

// MVASDSingleServer is the paper's Fig.-8 baseline: the same varying-demand
// recursion but with every multi-server station folded into a single server
// of demand D/C (eq. 8 with normalised demands) instead of the
// marginal-probability correction. The paper shows this under-performs the
// multi-server model, especially when the bottleneck is a multi-core CPU.
func MVASDSingleServer(m *queueing.Model, maxN int, dm DemandModel, opts MVASDOptions) (*Result, error) {
	s, err := NewMVASDSingleServerSolver(m, dm, opts)
	if err != nil {
		return nil, err
	}
	return runToCompletion(context.Background(), s, maxN)
}
