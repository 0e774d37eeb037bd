package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/queueing"
)

// multiServerState is the mutable recursion state shared by Algorithm 2 and
// Algorithm 3 (MVASD): both perform the same population step, differing only
// in where the demands come from. It holds the mean queue lengths and the
// marginal queue-size probabilities p_k(j), j = 1..C_k, where p_k(j)
// approximates the probability that j−1 customers are present at station k
// (so p_k(1) starts at 1 for the empty network).
//
// f carries the correction factor alongside the probabilities it is derived
// from, so a step reads it instead of re-summing P_k: it is recomputed,
// always in the same summation order, after every update of p[k]. u[k] is
// the utilization X·D_k that produced p[k] through the closed-form update
// (NaN when p[k] came from anywhere else), so a step whose utilization is
// bit-for-bit unchanged — common past the knee, where X settles — skips the
// update: the closed form makes P_k a function of u alone.
type multiServerState struct {
	queue []float64   // Q_k
	p     [][]float64 // p[k][j-1] = p_k(j), length C_k
	f     []float64   // F_k = Σ_{m=0..C−1}(C−1−m)·P_k(m), kept in step with p
	u     []float64   // utilization behind the closed-form p[k], or NaN

	// Per-step invariants hoisted out of the hot loop (see stationConsts):
	// the MVASD fixed point re-runs multiServerStep many times per
	// population, so struct copies out of m.Stations were measurable.
	servers  []int
	serversF []float64
	delay    []bool
}

// newMultiServerState builds the empty-network state from pooled vectors;
// release returns them.
func newMultiServerState(m *queueing.Model) *multiServerState {
	k := len(m.Stations)
	s := &multiServerState{
		queue:    getVec(k),
		p:        make([][]float64, k),
		f:        getVec(k),
		u:        getVec(k),
		servers:  make([]int, k),
		serversF: getVec(k),
		delay:    make([]bool, k),
	}
	for i, st := range m.Stations {
		s.p[i] = getVec(st.Servers)
		s.p[i][0] = 1 // empty network: P(0 customers) = 1
		s.servers[i] = st.Servers
		s.serversF[i] = float64(st.Servers)
		s.delay[i] = st.Kind == queueing.Delay
	}
	s.resetDerived()
	return s
}

func (s *multiServerState) release() {
	putVec(s.queue)
	putVec(s.serversF)
	putVec(s.f)
	putVec(s.u)
	s.queue, s.serversF, s.servers, s.delay, s.f, s.u = nil, nil, nil, nil, nil, nil
	for k := range s.p {
		putVec(s.p[k])
		s.p[k] = nil
	}
}

// refreshF recomputes F_k from p[k]. The summation order is part of the
// recursion's float bits; keep it.
func (s *multiServerState) refreshF(k int) {
	c, p := s.serversF[k], s.p[k]
	f := 0.0
	for mIdx := 0; mIdx < s.servers[k] && mIdx < len(p); mIdx++ {
		f += (c - 1 - float64(mIdx)) * p[mIdx]
	}
	s.f[k] = f
}

// resetDerived rebuilds f from p and forgets every cached utilization, for
// probabilities that did not come from this state's own closed-form update.
func (s *multiServerState) resetDerived() {
	for k := range s.p {
		s.refreshF(k)
		s.u[k] = math.NaN()
	}
}

// copyFrom overwrites s with src's values. Both must come from the same
// model (needed by the fixed-point demand-vs-throughput mode, which re-runs
// a step from the same pre-step state without allocating a clone).
func (s *multiServerState) copyFrom(src *multiServerState) {
	copy(s.queue, src.queue)
	copy(s.f, src.f)
	copy(s.u, src.u)
	for k := range s.p {
		copy(s.p[k], src.p[k])
	}
}

// restore overwrites the recursion state from a checkpoint, validating
// shapes.
func (s *multiServerState) restore(cp *Checkpoint) error {
	if err := copyQueue(s.queue, cp.Queue); err != nil {
		return err
	}
	if err := copyInto(s.p, cp.Marginal); err != nil {
		return err
	}
	s.resetDerived()
	return nil
}

// MultiServerOptions tunes Algorithm 2 / Algorithm 3 behaviour.
type MultiServerOptions struct {
	// Verbatim selects a strict transcription of the paper's printed
	// Algorithm 2, whose marginal-probability update reads
	//
	//	p_k(1) ← 1 − (1/C_k)(X·S_k + Σ_{j=2..C_k} p_k(j))
	//	p_k(j) ← (X·S_k/j)·p_k(j−1)
	//
	// i.e. without the (C_k−j) weights of Suri–Sahu–Vernon — the method
	// the paper cites as its source ([8]) — and without clamping. The
	// printed form mis-normalises the probability vector for larger C_k
	// (the p's can sum far above 1 mid-range, inflating the correction
	// factor F_k and depressing predicted throughput at the knee), so the
	// default uses the weighted update
	//
	//	P_k(0) ← 1 − (1/C_k)[X·D_k + Σ_{j=1..C_k−1}(C_k−j)·P_k(j)]
	//	P_k(j) ← (X·D_k/j)·P_k(j−1),  j = 1..C_k−1
	//
	// with P_k(0) clamped at 0 near saturation (p_k(j) in the paper's
	// notation is P_k(j−1) here). The ablation bench compares both against
	// exact load-dependent MVA.
	Verbatim bool
	// TraceStation, if non-negative, records the marginal probabilities of
	// that station at every population into Result trace storage (used by
	// the Fig. 3 experiment).
	TraceStation int
}

// multiServerStep performs one population step of the multi-server exact MVA
// (the body of Algorithm 2) using the supplied per-station demands. It
// mutates st and returns the step's throughput, response time and
// per-station residence times. demands[k] is D_k = V_k·S_k for this step.
// st.p[k][m] holds P_k(m | n−1), the marginal probability of m customers at
// station k.
func multiServerStep(m *queueing.Model, st *multiServerState, demands []float64, n int, verbatim bool, resid []float64) (x, rTotal float64) {
	queue, delay, servers, serversF, fk, uk := st.queue, st.delay, st.servers, st.serversF, st.f, st.u
	kk := len(queue)
	if len(delay) < kk || len(servers) < kk || len(serversF) < kk || len(fk) < kk || len(uk) < kk ||
		len(resid) < kk || len(demands) < kk {
		return 0, 0 // construction guarantees matching shapes; keep BCE honest
	}
	for k := 0; k < kk; k++ {
		if delay[k] {
			resid[k] = demands[k]
			rTotal += resid[k]
			continue
		}
		// R_k = (D_k/C_k)(1 + Q_k + F_k)   (paper eq. 10 in demand form),
		// with the correction factor F_k = Σ_{j=1..C}(C−j)·p_k(j) in paper
		// indexing carried in st.f.
		resid[k] = demands[k] / serversF[k] * (1 + queue[k] + fk[k])
		rTotal += resid[k]
	}
	x = float64(n) / (rTotal + m.ThinkTime)
	for k := 0; k < kk; k++ {
		queue[k] = x * resid[k]
		if delay[k] || servers[k] == 1 {
			// P_k(0) stays 1 for single servers: F_k ≡ 0 and eq. 10
			// reduces to the single-server eq. 8, as the paper notes.
			continue
		}
		c := serversF[k]
		u := x * demands[k] // total utilization X·D_k (0..C_k scale)
		p := st.p[k]
		if verbatim {
			// As printed: unweighted P(0) update first, then cascade the
			// tail from the freshly updated predecessors.
			sum := 0.0
			for mIdx := 1; mIdx < servers[k]; mIdx++ {
				sum += p[mIdx]
			}
			p[0] = 1 - (u+sum)/c
			for j := 2; j <= servers[k]; j++ {
				p[j-1] = u / float64(j) * p[j-2]
			}
			st.refreshF(k)
			continue
		}
		// Compared by bits, so a signed zero or NaN never reuses a P_k
		// computed from a different value.
		if math.Float64bits(u) == math.Float64bits(uk[k]) {
			continue
		}
		uk[k] = u
		// Suri–Sahu–Vernon, solved in closed form: the self-consistent
		// solution of P(j) = (u/j)·P(j−1), j = 1..C−1, together with
		// P(0) = 1 − (1/C)[u + Σ_{j=1..C−1}(C−j)·P(j)] is
		//
		//	P(j) = P(0)·u^j/j!,
		//	P(0) = (1 − u/C) / (1 + (1/C)·Σ_{j=1..C−1}(C−j)·u^j/j!)
		//
		// clamped at 0 once the station saturates (u ≥ C), where the
		// correction factor vanishes and the station behaves as a single
		// server of demand D/C.
		if u >= c {
			for mIdx := range p {
				p[mIdx] = 0
			}
			st.refreshF(k)
			continue
		}
		// Fused: one pass stores the factorial terms u^j/j! in place while
		// accumulating the weighted sum, then a scale-by-P(0) sweep — the
		// division-heavy recurrence is evaluated once instead of twice.
		wsum := 0.0
		term := 1.0 // u^j/j!
		for j := 1; j < servers[k]; j++ {
			term *= u / float64(j)
			p[j] = term
			wsum += (c - float64(j)) * term
		}
		p0 := (1 - u/c) / (1 + wsum/c)
		p[0] = p0
		for j := 1; j < servers[k]; j++ {
			p[j] *= p0
		}
		st.refreshF(k)
	}
	return x, rTotal
}

// MarginalTrace records the per-population marginal probabilities of one
// station, the data behind the paper's Fig. 3.
type MarginalTrace struct {
	Station string
	Servers int
	// P[i][j] is p_k(j+1) at population i+1.
	P [][]float64
}

// multiServerStepper is the resumable form of Algorithm 2: constant demands,
// multiServerState carried across populations.
type multiServerStepper struct {
	m        *queueing.Model
	st       *multiServerState
	demands  []float64
	verbatim bool
	traceAt  int
	trace    *MarginalTrace
}

func (s *multiServerStepper) step(res *Result, n, row int, _ func(int) error, _ *SolveHooks) error {
	x, rTotal := multiServerStep(s.m, s.st, s.demands, n, s.verbatim, res.Residence[row])
	setRowTotals(res, s.m, row, x, rTotal)
	if s.trace != nil {
		s.trace.P = append(s.trace.P, append([]float64(nil), s.st.p[s.traceAt]...))
	}
	return nil
}

func (s *multiServerStepper) fill(res *Result, row int) {
	fillMultiServerRow(res, s.m, row, s.st.queue, s.demands)
}

func (s *multiServerStepper) release() {
	s.st.release()
	putVec(s.demands)
	s.demands = nil
}

func (s *multiServerStepper) checkpoint(cp *Checkpoint) {
	cp.Queue = append([]float64(nil), s.st.queue...)
	cp.Marginal = cloneVecs(s.st.p)
}

func (s *multiServerStepper) restore(cp *Checkpoint) error {
	if s.trace != nil {
		return fmt.Errorf("%w: cannot restore a marginal-tracing solver", ErrBadRun)
	}
	return s.st.restore(cp)
}

// NewMultiServerSolver returns a resumable Algorithm-2 solver for m. When
// opts.TraceStation is a valid station index, Solver.Trace exposes the
// marginal-probability trace.
func NewMultiServerSolver(m *queueing.Model, opts MultiServerOptions) (*Solver, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	demands := getVec(len(m.Stations))
	for i, st := range m.Stations {
		demands[i] = st.Demand()
	}
	alg := &multiServerStepper{
		m:        m,
		st:       newMultiServerState(m),
		demands:  demands,
		verbatim: opts.Verbatim,
		traceAt:  opts.TraceStation,
	}
	if opts.TraceStation >= 0 && opts.TraceStation < len(m.Stations) {
		alg.trace = &MarginalTrace{
			Station: m.Stations[opts.TraceStation].Name,
			Servers: m.Stations[opts.TraceStation].Servers,
		}
	}
	return newSolver("exact-mva-multiserver", newEmptyResult("exact-mva-multiserver", m, 0), alg), nil
}

// ExactMVAMultiServer solves the network with the paper's Algorithm 2:
// exact MVA extended with multi-server queues through the marginal
// queue-size probabilities p_k(j) and the correction factor
//
//	R_k = (S_k/C_k)·(1 + Q_k + Σ_{j=1..C_k}(C_k−j)·p_k(j))   (eq. 10)
//
// Demands are constant across populations (this is the "MVA i" baseline:
// whatever demands the model carries, typically measured at one concurrency
// level i). The returned trace is non-nil when opts.TraceStation >= 0.
func ExactMVAMultiServer(m *queueing.Model, maxN int, opts MultiServerOptions) (*Result, *MarginalTrace, error) {
	return exactMVAMultiServer(context.Background(), m, maxN, opts)
}

func exactMVAMultiServer(ctx context.Context, m *queueing.Model, maxN int, opts MultiServerOptions) (*Result, *MarginalTrace, error) {
	if err := validateRun(m, maxN); err != nil {
		return nil, nil, err
	}
	s, err := NewMultiServerSolver(m, opts)
	if err != nil {
		return nil, nil, err
	}
	trace := s.Trace()
	res, err := runToCompletion(ctx, s, maxN)
	if err != nil {
		return nil, nil, err
	}
	return res, trace, nil
}

// setRowTotals records a population step's system-level metrics into row i.
func setRowTotals(res *Result, m *queueing.Model, i int, x, rTotal float64) {
	res.X[i] = x
	res.R[i] = rTotal
	res.Cycle[i] = rTotal + m.ThinkTime
}

// fillMultiServerRow writes the queue lengths, per-server utilizations and
// demands of the step stored in row i.
func fillMultiServerRow(res *Result, m *queueing.Model, i int, queue, demands []float64) {
	x := res.X[i]
	for k, stn := range m.Stations {
		res.QueueLen[i][k] = queue[k]
		if stn.Kind == queueing.Delay {
			res.Util[i][k] = 0
		} else {
			res.Util[i][k] = math.Min(x*demands[k]/float64(stn.Servers), 1)
		}
		res.Demands[i][k] = demands[k]
	}
}
