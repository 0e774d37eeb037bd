package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/queueing"
)

// ErrBadRun is returned for invalid solver invocations (N < 1, invalid
// model, missing demand model, non-convergence).
var ErrBadRun = errors.New("core: invalid solver run")

// stationConsts are the per-population invariants of a constant-demand
// model, hoisted out of the per-step hot loops: the demand vector, the
// delay-centre flags and the float server counts. Computing st.Demand()
// (a Visits·ServiceTime multiply behind a struct copy) inside the step made
// the model slice the hottest object in deep-solve profiles; these arrays
// are resolved once at solver construction.
type stationConsts struct {
	demands  []float64 // D_k = V_k·S_k
	delay    []bool    // Kind == Delay
	serversF []float64 // float64(C_k)
}

func newStationConsts(m *queueing.Model) stationConsts {
	k := len(m.Stations)
	c := stationConsts{demands: getVec(k), delay: make([]bool, k), serversF: getVec(k)}
	for i, st := range m.Stations {
		c.demands[i] = st.Demand()
		c.delay[i] = st.Kind == queueing.Delay
		c.serversF[i] = float64(st.Servers)
	}
	return c
}

func (c *stationConsts) release() {
	putVec(c.demands)
	putVec(c.serversF)
	c.demands, c.serversF, c.delay = nil, nil, nil
}

// validateRun performs the checks shared by every solver entry point.
func validateRun(m *queueing.Model, n int) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if n < 1 {
		return fmt.Errorf("%w: population %d", ErrBadRun, n)
	}
	return nil
}

// exactStepper is the per-population body of Algorithm 1. Its only recursion
// state is the previous step's queue-length vector; everything else is
// hoisted model invariants.
type exactStepper struct {
	noHistory
	c stationConsts
	z float64
	q []float64 // Q_k at the previous population
}

func (e *exactStepper) step(res *Result, n, row int, _ func(int) error, _ *SolveHooks) error {
	demands, delay, q := e.c.demands, e.c.delay, e.q
	resid := res.ResidenceRow(row)
	k := len(demands)
	if len(q) < k || len(delay) < k || len(resid) < k {
		return fmt.Errorf("%w: exact stepper state shape mismatch", ErrBadRun)
	}
	rTotal := 0.0
	for i := 0; i < k; i++ {
		rv := demands[i]
		if !delay[i] {
			rv *= 1 + q[i]
		}
		resid[i] = rv
		rTotal += rv
	}
	x := float64(n) / (rTotal + e.z)
	for i := 0; i < k; i++ {
		q[i] = x * resid[i]
	}
	res.X[row] = x
	res.R[row] = rTotal
	res.Cycle[row] = rTotal + e.z
	return nil
}

func (e *exactStepper) fill(res *Result, row int) {
	fillConstRow(res, row, &e.c, e.q)
}

// fillConstRow writes the queue lengths q and the per-server utilizations
// of a constant-demand step into row; the demands are the Result's shared
// row.
func fillConstRow(res *Result, row int, c *stationConsts, q []float64) {
	demands := c.demands
	k := len(demands)
	delay, serversF, q := c.delay[:k], c.serversF[:k], q[:k]
	qRow, uRow := res.QueueLenRow(row)[:k], res.Util[row][:k]
	x := res.X[row]
	for i := 0; i < k; i++ {
		qRow[i] = q[i]
		u := 0.0
		if !delay[i] {
			u = x * demands[i] / serversF[i]
			if u > 1 {
				u = 1
			}
		}
		uRow[i] = u
	}
}

func (e *exactStepper) release() {
	e.c.release()
	putVec(e.q)
	e.q = nil
}

func (e *exactStepper) checkpoint(cp *Checkpoint) {
	cp.Queue = append([]float64(nil), e.q...)
}

func (e *exactStepper) restore(cp *Checkpoint) error {
	return copyQueue(e.q, cp.Queue)
}

func (e *exactStepper) rowState() rowState { return queueRows{} }

// NewExactMVASolver returns a resumable Algorithm-1 solver for m.
func NewExactMVASolver(m *queueing.Model) (*Solver, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return newSolver("exact-mva", newEmptyResult("exact-mva", m, m.Demands()),
		&exactStepper{c: newStationConsts(m), z: m.ThinkTime, q: getVec(len(m.Stations))}), nil
}

// ExactMVA solves the closed network with the exact single-server MVA
// (paper Algorithm 1): for each population step
//
//	R_k = S_k · (1 + Q_k)                         (eq. 8)
//	R   = Σ_k V_k · R_k
//	X   = n / (R + Z)                             (Little's law)
//	Q_k = X · V_k · R_k
//
// Multi-server stations are accepted but treated as single servers with the
// station's raw per-visit service time — exactly the mis-modelling the paper
// demonstrates. Use ExactMVAMultiServer (or demand normalisation, see
// NormalizeServers) for multi-core resources. Delay stations contribute
// their demand without queueing.
func ExactMVA(m *queueing.Model, maxN int) (*Result, error) {
	if err := validateRun(m, maxN); err != nil {
		return nil, err
	}
	s, err := NewExactMVASolver(m)
	if err != nil {
		return nil, err
	}
	return runToCompletion(context.Background(), s, maxN)
}

// NormalizeServers returns a copy of the model in which every multi-server
// station is replaced by a single-server station with service time S_k/C_k.
// This is the heuristic normalisation the paper calls out as error-prone
// ("dividing the service demand by the number of CPU cores"), retained as
// the MVASD:Single-Server baseline of Fig. 8.
func NormalizeServers(m *queueing.Model) *queueing.Model {
	out := &queueing.Model{Name: m.Name + " (normalized)", ThinkTime: m.ThinkTime}
	out.Stations = make([]queueing.Station, len(m.Stations))
	for i, st := range m.Stations {
		st.ServiceTime /= float64(st.Servers)
		st.Servers = 1
		out.Stations[i] = st
	}
	return out
}

// SchweitzerOptions tunes the approximate MVA iteration.
type SchweitzerOptions struct {
	// Tol is the relative queue-length convergence tolerance (default 1e-10).
	Tol float64
	// MaxIter caps the fixed-point iterations per population (default 10_000).
	MaxIter int
}

func (o *SchweitzerOptions) defaults() {
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 10000
	}
}

// schweitzerStepper solves each population's fixed point warm-started from
// the previous population's converged queue lengths. The cold balanced
// guess Q_k = n/K is used only at the first population; after that the
// fixed point at n starts a small perturbation away from its solution,
// which collapses the iteration count from hundreds (the balanced guess is
// terrible near saturation, where the map contracts slowly) to a handful.
// The converged q vector is therefore real recursion state and is carried
// in checkpoints.
type schweitzerStepper struct {
	noHistory
	c      stationConsts
	z      float64
	opts   SchweitzerOptions
	q      []float64
	primed bool // q holds the previous population's fixed point
}

func (s *schweitzerStepper) step(res *Result, n, row int, _ func(int) error, hooks *SolveHooks) error {
	demands, delay, q := s.c.demands, s.c.delay, s.q
	k := len(demands)
	resid := res.ResidenceRow(row)
	if len(q) < k || len(delay) < k || len(resid) < k {
		return fmt.Errorf("%w: schweitzer stepper state shape mismatch", ErrBadRun)
	}
	if !s.primed {
		// Cold start: the balanced initial guess Q_k = n/K.
		bal := float64(n) / float64(k)
		for i := range q {
			q[i] = bal
		}
		s.primed = true
	}
	ratio := float64(n-1) / float64(n)
	var x, rTotal, worst float64
	converged, iters := false, 0
	for iter := 0; iter < s.opts.MaxIter; iter++ {
		iters = iter + 1
		rTotal = 0
		for i := 0; i < k; i++ {
			rv := demands[i]
			if !delay[i] {
				rv *= 1 + ratio*q[i]
			}
			resid[i] = rv
			rTotal += rv
		}
		x = float64(n) / (rTotal + s.z)
		worst = 0.0
		for i := 0; i < k; i++ {
			nq := x * resid[i]
			d := math.Abs(nq - q[i])
			if ref := q[i]; ref > 1e-12 {
				d /= ref
			} else {
				d /= 1e-12
			}
			if d > worst {
				worst = d
			}
			q[i] = nq
		}
		if worst < s.opts.Tol {
			converged = true
			break
		}
	}
	hooks.fixedPoint(n, iters, worst, converged)
	if !converged {
		return fmt.Errorf("%w: schweitzer did not converge at n=%d", ErrBadRun, n)
	}
	res.X[row] = x
	res.R[row] = rTotal
	res.Cycle[row] = rTotal + s.z
	return nil
}

func (s *schweitzerStepper) fill(res *Result, row int) {
	fillConstRow(res, row, &s.c, s.q)
}

func (s *schweitzerStepper) release() {
	s.c.release()
	putVec(s.q)
	s.q = nil
}

// The warm-started fixed point makes the previous population's converged
// queue lengths recursion state proper.
func (s *schweitzerStepper) checkpoint(cp *Checkpoint) {
	cp.Queue = append([]float64(nil), s.q...)
}

func (s *schweitzerStepper) restore(cp *Checkpoint) error {
	if cp.N == 0 {
		// A fresh solver's checkpoint restores to a cold balanced start.
		s.primed = false
		return nil
	}
	if err := copyQueue(s.q, cp.Queue); err != nil {
		return err
	}
	s.primed = true
	return nil
}

func (s *schweitzerStepper) rowState() rowState { return queueRows{} }

// NewSchweitzerSolver returns a resumable Bard–Schweitzer solver for m.
func NewSchweitzerSolver(m *queueing.Model, opts SchweitzerOptions) (*Solver, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	opts.defaults()
	return newSolver("schweitzer-amva", newEmptyResult("schweitzer-amva", m, m.Demands()),
		&schweitzerStepper{c: newStationConsts(m), z: m.ThinkTime, opts: opts, q: getVec(len(m.Stations))}), nil
}

// Schweitzer solves the network with the Bard–Schweitzer approximate MVA:
// the exact arrival theorem term Q_k(n−1) is approximated by
//
//	Q_k(n−1) ≈ (n−1)/n · Q_k(n)                  (paper eq. 9)
//
// yielding a fixed point solved at every population of the trajectory —
// cheaper than the exact recursion would suggest, at some accuracy cost.
// Each population's fixed point is warm-started from the previous
// population's converged queue lengths (population 1 starts from the
// balanced guess), so the per-population iteration count stays O(1) even
// near saturation, where a cold balanced start needs hundreds of
// iterations.
func Schweitzer(m *queueing.Model, maxN int, opts SchweitzerOptions) (*Result, error) {
	if err := validateRun(m, maxN); err != nil {
		return nil, err
	}
	s, err := NewSchweitzerSolver(m, opts)
	if err != nil {
		return nil, err
	}
	return runToCompletion(context.Background(), s, maxN)
}
