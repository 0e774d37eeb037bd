package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/queueing"
)

// RateFunc is a load-dependent service-rate multiplier: alpha(j) is the
// speedup of a station when j customers are present (alpha(1) = 1 for a
// plain server; alpha(j) = min(j, C) for a C-server station). It must be
// positive for j >= 1.
type RateFunc func(j int) float64

// MultiServerRate returns the rate function of a C-server station.
func MultiServerRate(c int) RateFunc {
	return func(j int) float64 {
		if j < c {
			return float64(j)
		}
		return float64(c)
	}
}

// SingleServerRate is the constant-rate function of a plain queue.
func SingleServerRate() RateFunc { return func(int) float64 { return 1 } }

// loadDepStepper carries the full marginal queue-length distribution through
// the population recursion; the rows grow with n.
type loadDepStepper struct {
	m       *queueing.Model
	rates   []RateFunc
	demands []float64
	// p[k][j] = p_k(j | n−1); row k has length n after step n completes
	// (p[k][0] = 1 for the empty network).
	p [][]float64
}

func (s *loadDepStepper) step(res *Result, n, row int, _ func(int) error, _ *SolveHooks) error {
	m, demands, p := s.m, s.demands, s.p
	// Make room for index n in every marginal row. The newly exposed slot
	// of pooled capacity may hold stale data: the tail-down update
	// overwrites it for queueing stations, but a delay station's row is
	// never updated and is still shipped in checkpoints, so clear it.
	for k := range p {
		if cap(p[k]) <= n {
			grown := make([]float64, n+1, 2*(n+1))
			copy(grown, p[k])
			p[k] = grown
		} else {
			p[k] = p[k][:n+1]
			p[k][n] = 0
		}
	}
	// Physical throughput cap at this population: no station can complete
	// faster than its current peak rate α(n)/D. Computing it per step (not
	// from the run's target population) keeps the recursion independent of
	// maxN, so an extended solve is bit-identical to a cold one; it is also
	// the tighter bound, since at most n customers can be present. The
	// numerically guarded recursion (see below) can otherwise drift slightly
	// above the bound near saturation.
	xCap := math.Inf(1)
	for i, st := range m.Stations {
		if st.Kind == queueing.Delay || demands[i] <= 0 {
			continue
		}
		xCap = minf(xCap, s.rates[i](n)/demands[i])
	}
	rTotal := 0.0
	resid := res.ResidenceRow(row)
	for i, st := range m.Stations {
		if st.Kind == queueing.Delay {
			resid[i] = demands[i]
			rTotal += resid[i]
			continue
		}
		w := 0.0
		for j := 1; j <= n; j++ {
			a := s.rates[i](j)
			if a <= 0 {
				return fmt.Errorf("%w: station %q rate alpha(%d)=%g", ErrBadRun, st.Name, j, a)
			}
			w += float64(j) / a * p[i][j-1]
		}
		resid[i] = demands[i] * w
		rTotal += resid[i]
	}
	x := float64(n) / (rTotal + m.ThinkTime)
	if x > xCap {
		// Clamp to the capacity bound and restore Little's law by
		// growing the response time, scaling residence times to match.
		x = xCap
		newR := float64(n)/x - m.ThinkTime
		if rTotal > 0 {
			scale := newR / rTotal
			for i := range resid {
				resid[i] *= scale
			}
		}
		rTotal = newR
	}
	for i, st := range m.Stations {
		if st.Kind == queueing.Delay {
			continue
		}
		// Update the marginal distribution from the tail down so the
		// j−1 terms still refer to population n−1.
		sum := 0.0
		for j := n; j >= 1; j-- {
			p[i][j] = x * demands[i] / s.rates[i](j) * p[i][j-1]
			sum += p[i][j]
		}
		// The textbook recursion computes p(0|n) = 1 − Σ_{j≥1} p(j|n),
		// which suffers catastrophic cancellation as the station
		// saturates (the well-known numerical instability of exact
		// MVA-LD). Guard it by renormalising the distribution whenever
		// the accumulated mass exceeds 1: this keeps p a valid
		// distribution and degrades gracefully instead of collapsing.
		if sum >= 1 {
			inv := 1 / sum
			for j := 1; j <= n; j++ {
				p[i][j] *= inv
			}
			p[i][0] = 0
		} else {
			p[i][0] = 1 - sum
		}
	}
	res.X[row] = x
	res.R[row] = rTotal
	res.Cycle[row] = rTotal + m.ThinkTime
	return nil
}

// fill stores the row's utilizations. Its queue lengths are derived from
// the step's (possibly capacity-scaled) residence times, X·D_k at a delay
// station (Result.AppendQueueLenRow).
func (s *loadDepStepper) fill(res *Result, row int) { res.fillUtil(row) }

func (s *loadDepStepper) release() {
	putVec(s.demands)
	s.demands = nil
	for k := range s.p {
		putVec(s.p[k])
		s.p[k] = nil
	}
}

func (s *loadDepStepper) checkpoint(cp *Checkpoint) {
	cp.Marginal = cloneVecs(s.p)
}

// restore overwrites the marginal rows wholesale: unlike the fixed-width
// multi-server state, the load-dependent rows grow with the population, so
// the checkpoint's row lengths are authoritative.
func (s *loadDepStepper) restore(cp *Checkpoint) error {
	if len(cp.Marginal) != len(s.p) {
		return fmt.Errorf("%w: checkpoint has %d marginal rows, solver expects %d",
			ErrBadRun, len(cp.Marginal), len(s.p))
	}
	for k, row := range cp.Marginal {
		putVec(s.p[k])
		s.p[k] = append(getVec(len(row))[:0], row...)
	}
	return nil
}

// rowState: every marginal row grows with the population, so the whole
// distribution is history.
func (s *loadDepStepper) rowState() rowState { return loadDepRows{} }

func (s *loadDepStepper) history(buf []float64) []float64 {
	for _, row := range s.p {
		buf = append(buf, row...)
	}
	return buf
}

// loadDepRows rebuilds the load-dependent state from its stored history:
// after step n every station's row holds n+1 probabilities, back to back in
// station order.
type loadDepRows struct{}

func (loadDepRows) rebuild(cp *Checkpoint, r *Result, i int, hist []float64) {
	flat := append([]float64(nil), hist...)
	w := len(flat) / r.k
	cp.Marginal = make([][]float64, r.k)
	for k := range cp.Marginal {
		cp.Marginal[k] = flat[k*w : (k+1)*w : (k+1)*w]
	}
}

// NewLoadDependentSolver returns a resumable exact load-dependent MVA
// solver. rates may be nil or contain nil entries, which default to each
// station's MultiServerRate.
func NewLoadDependentSolver(m *queueing.Model, rates []RateFunc) (*Solver, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	k := len(m.Stations)
	if rates == nil {
		rates = make([]RateFunc, k)
	}
	if len(rates) != k {
		return nil, fmt.Errorf("%w: %d rate functions for %d stations", ErrBadRun, len(rates), k)
	}
	resolved := make([]RateFunc, k)
	for i, st := range m.Stations {
		resolved[i] = rates[i]
		if resolved[i] == nil {
			resolved[i] = MultiServerRate(st.Servers)
		}
	}
	shared := m.Demands()
	demands := getVec(k)
	copy(demands, shared)
	alg := &loadDepStepper{m: m, rates: resolved, demands: demands, p: make([][]float64, k)}
	for i := range alg.p {
		alg.p[i] = getVec(1)
		alg.p[i][0] = 1
	}
	return newSolver("load-dependent-mva", newEmptyResult("load-dependent-mva", m, shared), alg), nil
}

// LoadDependentMVA solves the closed network with the textbook *exact*
// load-dependent MVA (Reiser & Lavenberg): the full marginal queue-length
// distribution p_k(j|n) is carried through the population recursion,
//
//	W_k(n)   = D_k · Σ_{j=1..n} (j/α_k(j)) · p_k(j−1 | n−1)
//	X(n)     = n / (Z + Σ_k W_k(n))
//	p_k(j|n) = (X(n)·D_k/α_k(j)) · p_k(j−1|n−1),  j = 1..n
//	p_k(0|n) = 1 − Σ_{j=1..n} p_k(j|n)
//
// With α_k = MultiServerRate(C_k) this is the exact solution of the
// multi-server network that the paper's Algorithm 2 approximates with a
// fixed-size probability vector; the experiments use it as the accuracy
// reference for that approximation. O(N²·K) time and O(N·K) space. rates
// may be nil, in which case each station's rate function is derived from
// its server count. Delay stations are treated as infinite servers.
func LoadDependentMVA(m *queueing.Model, maxN int, rates []RateFunc) (*Result, error) {
	if err := validateRun(m, maxN); err != nil {
		return nil, err
	}
	s, err := NewLoadDependentSolver(m, rates)
	if err != nil {
		return nil, err
	}
	return runToCompletion(context.Background(), s, maxN)
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
