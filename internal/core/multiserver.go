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
// from, so a step reads it instead of re-summing P_k. On the closed-form
// (non-verbatim) path P_k and F_k depend only on (u, C_k), u = X·D_k, so a
// per-station memo keeps the last memoWays results keyed by the bits of u
// and a step recomputes them only for a utilization the station has not seen
// in its last memoWays misses; the memo never goes stale across copyFrom,
// restore or a checkpoint.
//
// A step reads only F_k, so a memoised P_k stays in its way: station k's
// P_k is the memo way stn[k].cur when cur ≥ 0, else p[k]. materialize
// copies every such way into p and sets cur to −1; whatever reads p calls
// it first (checkpoint, copyFrom, the verbatim history, the marginal
// trace). u[k] is the key of the closed-form P_k the station holds, in
// either place (noKey when p[k] came from anywhere else, and then cur is
// −1): a step whose utilization is bit-for-bit unchanged — common past the
// knee, where X settles — touches neither the memo nor p.
type multiServerState struct {
	queue []float64   // Q_k
	p     [][]float64 // p[k][j-1] = p_k(j), length C_k, unless stn[k].cur ≥ 0
	f     []float64   // F_k = Σ_{m=0..C−1}(C−1−m)·P_k(m), kept in step with P_k
	u     []float64   // memo key behind the closed-form P_k, or noKey

	stn     []msStation
	memoBuf []float64 // pooled backing of every station's memo ways
}

// msStation holds one station's per-step invariants, hoisted out of the hot
// loop (see stationConsts): the MVASD fixed point re-runs multiServerStep
// many times per population, so struct copies out of m.Stations were
// measurable. A multi-server station also carries its closed-form memo.
type msStation struct {
	servers int
	c       float64 // servers as a float
	delay   bool
	// The station's last memoWays closed-form results, overwritten round
	// robin from next: way w maps keys[w] to F_k = fs[w] and P_k =
	// ps[w·C:(w+1)·C], a window of memoBuf (nil for delay and
	// single-server stations). Unused ways hold the saturated result under
	// the key +Inf, which is exactly what the closed form gives for it.
	// cur is the way holding the station's current P_k, or −1 when the
	// state's p[k] holds it; only this station's own update evicts a way,
	// and it moves cur in the same call.
	keys, fs [memoWays]float64
	ps       []float64
	next     int
	cur      int
}

// noKey marks p[k] as not a closed-form result. Every u ≥ C_k is keyed as
// +Inf, so no step's key is ever this finite value above any server count
// (a NaN marker would collide with a NaN utilization of the same bits).
const noKey = math.MaxFloat64

// memoWays is how many closed-form results each multi-server station keeps.
// Past the knee X cycles among two or three floats rather than settling on
// one; on the VINS and JPetStore models to N=20 000 four ways serve 97–98%
// of Algorithm-2 steps (one way 44–52%, two 76–83%, three 96–98%, eight no
// better) and 92–96% of MVASD steps (one way 29–67%).
const memoWays = 4

// newMultiServerState builds the empty-network state from pooled vectors;
// release returns them.
func newMultiServerState(m *queueing.Model) *multiServerState {
	k := len(m.Stations)
	s := &multiServerState{
		queue: getVec(k),
		p:     make([][]float64, k),
		f:     getVec(k),
		u:     getVec(k),
		stn:   make([]msStation, k),
	}
	size := 0
	for i, st := range m.Stations {
		s.p[i] = getVec(st.Servers)
		s.stn[i] = msStation{servers: st.Servers, c: float64(st.Servers), delay: st.Kind == queueing.Delay, cur: -1}
		if s.stn[i].carried() {
			size += memoWays * st.Servers
		}
	}
	s.memoBuf = getMemoVec(size)
	rest := s.memoBuf
	for i := range s.stn {
		sk := &s.stn[i]
		if !sk.carried() {
			continue
		}
		sk.ps, rest = rest[:memoWays*sk.servers], rest[memoWays*sk.servers:]
		for w := range sk.keys {
			sk.keys[w] = math.Inf(1)
		}
	}
	s.reset()
	return s
}

// reset returns the state to the empty network, where every station's
// P(0 customers) is 1. The memo stays: its entries depend on u alone.
func (s *multiServerState) reset() {
	clear(s.queue)
	for k := range s.p {
		clear(s.p[k])
		s.p[k][0] = 1
	}
	s.resetDerived()
}

func (s *multiServerState) release() {
	putVec(s.queue)
	putVec(s.f)
	putVec(s.u)
	putMemoVec(s.memoBuf)
	s.queue, s.f, s.u, s.stn, s.memoBuf = nil, nil, nil, nil, nil
	for k := range s.p {
		putVec(s.p[k])
		s.p[k] = nil
	}
}

// refreshF recomputes F_k from p[k]. The summation order is part of the
// recursion's float bits; keep it.
func (s *multiServerState) refreshF(k int) {
	c, p := s.stn[k].c, s.p[k]
	f := 0.0
	for mIdx := 0; mIdx < s.stn[k].servers && mIdx < len(p); mIdx++ {
		f += (c - 1 - float64(mIdx)) * p[mIdx]
	}
	s.f[k] = f
}

// resetDerived rebuilds f from p and forgets which memo key p holds, for
// probabilities that did not come from this state's own closed-form update.
// The memo itself stays valid: its entries depend on u alone.
func (s *multiServerState) resetDerived() {
	for k := range s.p {
		s.stn[k].cur = -1
		s.refreshF(k)
		s.u[k] = noKey
	}
}

// materialize copies every memoised P_k into p, so p holds every station's
// marginals until the next step.
func (s *multiServerState) materialize() {
	for k := range s.stn {
		sk := &s.stn[k]
		if w := sk.cur; w >= 0 {
			copy(s.p[k], sk.ps[w*sk.servers:(w+1)*sk.servers])
			sk.cur = -1
		}
	}
}

// perServer sets out[k] = D_k/C_k, the factor of station k's residence
// time in eq. 10.
func (s *multiServerState) perServer(demands, out []float64) {
	for k := range s.stn {
		out[k] = demands[k] / s.stn[k].c
	}
}

// copyFrom overwrites s with src's values. Both must come from the same
// model (needed by the fixed-point demand-vs-throughput mode, which re-runs
// a step from the same pre-step state without allocating a clone). Each
// state keeps its own memo: every entry of either is valid for both, but
// src's P_k is copied out of its way so that s holds it in p.
func (s *multiServerState) copyFrom(src *multiServerState) {
	src.materialize()
	copy(s.queue, src.queue)
	copy(s.f, src.f)
	copy(s.u, src.u)
	for k := range s.p {
		copy(s.p[k], src.p[k])
		s.stn[k].cur = -1
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

// carried reports whether the step updates station k's marginals: only a
// multi-server queue's do. The other rows keep their value from
// construction or restore, [1, 0, …] in any state a solver produced, and
// weigh nothing in a step: a delay station has no queue, and a single
// server's F_k is 0·P_k(0).
func (sk *msStation) carried() bool { return !sk.delay && sk.servers > 1 }

// rowState describes how a stored row rebuilds this state: withX when the
// stepper also carries the row's throughput, verbatim when the carried
// marginals follow the printed update, whose values depend on history.
func (s *multiServerState) rowState(withX, verbatim bool) rowState {
	ms := marginalRows{servers: make([]int, len(s.stn)), carried: make([]bool, len(s.stn)),
		withX: withX, verbatim: verbatim}
	for k := range s.stn {
		ms.servers[k], ms.carried[k] = s.stn[k].servers, s.stn[k].carried()
	}
	return ms
}

// history appends the verbatim update's carried marginals; the closed form
// is rebuilt from the row.
func (s *multiServerState) history(buf []float64, verbatim bool) []float64 {
	if !verbatim {
		return buf
	}
	s.materialize()
	for k := range s.stn {
		if s.stn[k].carried() {
			buf = append(buf, s.p[k]...)
		}
	}
	return buf
}

// marginalRows is the recursion state of Algorithms 2 and 3 at a stored row:
// the row's queue lengths, its throughput when withX, and the marginals. A
// carried station's marginals are the closed form at the row's u = X·D_k —
// closedForm gives the bits the step's memo holds — or, verbatim, the
// stored history; every other station's are [1, 0, …].
type marginalRows struct {
	servers         []int  // C_k, the width of station k's marginal row
	carried         []bool // the step updates station k's marginals
	withX, verbatim bool
}

func (ms marginalRows) rebuild(cp *Checkpoint, r *Result, i int, hist []float64) {
	cp.Queue = append([]float64(nil), r.QueueLenRow(i)...)
	if ms.withX {
		cp.X = r.X[i]
	}
	total := 0
	for _, c := range ms.servers {
		total += c
	}
	flat := make([]float64, total)
	cp.Marginal = make([][]float64, len(ms.servers))
	x, d := r.X[i], r.DemandsRow(i)
	for k, c := range ms.servers {
		p := flat[:c:c]
		flat = flat[c:]
		switch {
		case !ms.carried[k]:
			p[0] = 1
		case ms.verbatim:
			hist = hist[copy(p, hist):]
		default:
			closedForm(x*d[k], float64(c), p)
		}
		cp.Marginal[k] = p
	}
}

// update makes the closed-form P_k of the station at utilization u current
// and returns F_k: a way keyed by u's bits when there is one, so a signed
// zero or NaN never reuses a result computed from another value, else the
// way it evicts, evaluated in place. Either way P_k stays in the way (cur).
func (sk *msStation) update(u float64) float64 {
	bits := math.Float64bits(u)
	for w, key := range sk.keys {
		if math.Float64bits(key) == bits {
			sk.cur = w
			return sk.fs[w]
		}
	}
	w, c := sk.next, sk.servers
	f := closedForm(u, sk.c, sk.ps[w*c:(w+1)*c])
	sk.keys[w], sk.fs[w], sk.cur = u, f, w
	sk.next = (w + 1) % memoWays
	return f
}

// closedForm writes the Suri–Sahu–Vernon marginals of a C-server station at
// utilization u into p (length C) and returns F_k. The self-consistent
// solution of P(j) = (u/j)·P(j−1), j = 1..C−1, together with
// P(0) = 1 − (1/C)[u + Σ_{j=1..C−1}(C−j)·P(j)] is
//
//	P(j) = P(0)·u^j/j!,
//	P(0) = (1 − u/C) / (1 + (1/C)·Σ_{j=1..C−1}(C−j)·u^j/j!)
//
// clamped at 0 once the station saturates (u ≥ C), where the correction
// factor vanishes and the station behaves as a single server of demand D/C.
// F_k is summed in refreshF's order, so its bits match a re-sum of p.
func closedForm(u, c float64, p []float64) float64 {
	if u >= c {
		clear(p)
		return 0
	}
	// Fused: one pass stores the factorial terms u^j/j! in place while
	// accumulating the weighted sum, then a scale-by-P(0) sweep that also
	// accumulates F_k — the division-heavy recurrence is evaluated once.
	wsum := 0.0
	term := 1.0 // u^j/j!
	for j := 1; j < len(p); j++ {
		term *= u / float64(j)
		p[j] = term
		wsum += (c - float64(j)) * term
	}
	p0 := (1 - u/c) / (1 + wsum/c)
	p[0] = p0
	f := 0.0 // +0 first, as in refreshF: 0 + (−0) is +0
	f += (c - 1) * p0
	for j := 1; j < len(p); j++ {
		p[j] *= p0
		f += (c - 1 - float64(j)) * p[j]
	}
	return f
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
// per-station residence times. demands[k] is D_k = V_k·S_k for this step
// and perServer[k] is D_k/C_k (st.perServer), which the caller computes
// once per demand vector. On entry station k's marginals (see
// multiServerState) are P_k(m | n−1), the probability of m customers at
// station k.
func multiServerStep(m *queueing.Model, st *multiServerState, demands, perServer []float64, n int, verbatim bool, resid []float64) (x, rTotal float64) {
	queue, stn, fk, keys := st.queue, st.stn, st.f, st.u
	kk := len(queue)
	if len(stn) < kk || len(fk) < kk || len(keys) < kk || len(resid) < kk || len(demands) < kk || len(perServer) < kk {
		return 0, 0 // construction guarantees matching shapes; keep BCE honest
	}
	for k := 0; k < kk; k++ {
		if stn[k].delay {
			resid[k] = demands[k]
			rTotal += resid[k]
			continue
		}
		// R_k = (D_k/C_k)(1 + Q_k + F_k)   (paper eq. 10 in demand form),
		// with the correction factor F_k = Σ_{j=1..C}(C−j)·p_k(j) in paper
		// indexing carried in st.f.
		resid[k] = perServer[k] * (1 + queue[k] + fk[k])
		rTotal += resid[k]
	}
	x = float64(n) / (rTotal + m.ThinkTime)
	for k := 0; k < kk; k++ {
		queue[k] = x * resid[k]
		sk := &stn[k]
		if !sk.carried() {
			// P_k(0) stays 1 for single servers: F_k ≡ 0 and eq. 10
			// reduces to the single-server eq. 8, as the paper notes.
			continue
		}
		c := sk.c
		u := x * demands[k] // total utilization X·D_k (0..C_k scale)
		if verbatim {
			// As printed: unweighted P(0) update first, then cascade the
			// tail from the freshly updated predecessors.
			p := st.p[k]
			sum := 0.0
			for mIdx := 1; mIdx < sk.servers; mIdx++ {
				sum += p[mIdx]
			}
			p[0] = 1 - (u+sum)/c
			for j := 2; j <= sk.servers; j++ {
				p[j-1] = u / float64(j) * p[j-2]
			}
			st.refreshF(k)
			continue
		}
		// The closed form at u: nothing to do when the station already
		// holds it, else a memo lookup or, on a miss, one evaluation.
		if u >= c {
			u = math.Inf(1) // every saturated u has one result, so one key
		}
		if math.Float64bits(u) != math.Float64bits(keys[k]) {
			keys[k] = u
			fk[k] = sk.update(u)
		}
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
	m         *queueing.Model
	st        *multiServerState
	demands   []float64
	perServer []float64 // D_k/C_k of the constant demands
	verbatim  bool
	traceAt   int
	trace     *MarginalTrace
}

func (s *multiServerStepper) step(res *Result, n, row int, _ func(int) error, _ *SolveHooks) error {
	x, rTotal := multiServerStep(s.m, s.st, s.demands, s.perServer, n, s.verbatim, res.ResidenceRow(row))
	setRowTotals(res, s.m, row, x, rTotal)
	if s.trace != nil {
		s.st.materialize()
		s.trace.P = append(s.trace.P, append([]float64(nil), s.st.p[s.traceAt]...))
	}
	return nil
}

func (s *multiServerStepper) fill(res *Result, row int) {
	fillMultiServerRow(res, s.m, row, s.st.queue, s.demands)
}

func (s *multiServerStepper) release() {
	s.st.release()
	putVec(s.demands) // and perServer, its pair
	s.demands, s.perServer = nil, nil
}

func (s *multiServerStepper) checkpoint(cp *Checkpoint) {
	s.st.materialize()
	cp.Queue = append([]float64(nil), s.st.queue...)
	cp.Marginal = cloneVecs(s.st.p)
}

func (s *multiServerStepper) restore(cp *Checkpoint) error {
	if s.trace != nil {
		return fmt.Errorf("%w: cannot restore a marginal-tracing solver", ErrBadRun)
	}
	return s.st.restore(cp)
}

func (s *multiServerStepper) rowState() rowState { return s.st.rowState(false, s.verbatim) }

func (s *multiServerStepper) history(buf []float64) []float64 {
	return s.st.history(buf, s.verbatim)
}

// NewMultiServerSolver returns a resumable Algorithm-2 solver for m. When
// opts.TraceStation is a valid station index, Solver.Trace exposes the
// marginal-probability trace.
func NewMultiServerSolver(m *queueing.Model, opts MultiServerOptions) (*Solver, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	demands, perServer := getVecPair(len(m.Stations))
	for i, st := range m.Stations {
		demands[i] = st.Demand()
	}
	alg := &multiServerStepper{
		m:         m,
		st:        newMultiServerState(m),
		demands:   demands,
		perServer: perServer,
		verbatim:  opts.Verbatim,
		traceAt:   opts.TraceStation,
	}
	alg.st.perServer(demands, perServer)
	if opts.TraceStation >= 0 && opts.TraceStation < len(m.Stations) {
		alg.trace = &MarginalTrace{
			Station: m.Stations[opts.TraceStation].Name,
			Servers: m.Stations[opts.TraceStation].Servers,
		}
	}
	return newSolver("exact-mva-multiserver", newEmptyResult("exact-mva-multiserver", m, m.Demands()), alg), nil
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

// fillMultiServerRow writes the queue lengths and per-server utilizations
// of the step stored in row i.
func fillMultiServerRow(res *Result, m *queueing.Model, i int, queue, demands []float64) {
	x := res.X[i]
	qRow, uRow := res.QueueLenRow(i), res.Util[i]
	for k, stn := range m.Stations {
		qRow[k] = queue[k]
		if stn.Kind == queueing.Delay {
			uRow[k] = 0
		} else {
			uRow[k] = math.Min(x*demands[k]/float64(stn.Servers), 1)
		}
	}
}

// fillVaryingRow is fillMultiServerRow for a trajectory whose demands vary
// by row: it also stores the step's demands.
func fillVaryingRow(res *Result, m *queueing.Model, i int, queue, demands []float64) {
	fillMultiServerRow(res, m, i, queue, demands)
	copy(rowOf(res.dCol, res.k, i), demands)
}
