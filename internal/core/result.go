// Package core implements the paper's analytical contribution: the family of
// Mean Value Analysis solvers for single-class closed queueing networks —
//
//   - ExactMVA: the classic exact single-server MVA (paper Algorithm 1),
//   - Schweitzer: the approximate MVA of Schweitzer/Bard (paper eq. 9),
//   - ExactMVAMultiServer: exact MVA with multi-server queues via the
//     marginal-probability correction factor (paper Algorithm 2, eq. 10),
//   - MVASD: multi-server MVA with a *varying* (interpolated) array of
//     service demands (paper Algorithm 3, eq. 11) — the headline algorithm,
//   - MVASDSingleServer: the paper's Fig.-8 baseline that folds C-server
//     stations into single servers with demand D/C,
//   - LoadDependentMVA: textbook exact MVA for load-dependent rate
//     functions (used as an ablation reference for Algorithm 2),
//   - MulticlassMVA: exact multi-class MVA (an extension).
//
// All solvers return a Result holding the full X(n), R(n) trajectories plus
// per-station queue lengths and utilizations, which the experiment layer
// compares against "measured" load tests from the simulator.
//
// Every algorithm is also available in resumable form through the Solver
// type: Run(n) solves to population n, a later Extend(n') continues the
// recursion from the checkpointed state without re-solving the prefix.
package core

import (
	"fmt"
	"math"

	"repro/internal/queueing"
)

// Result is the trajectory of a closed-network solution for populations
// n = 1..N. Slices indexed by n use position n-1.
//
// The per-station metrics are flat columns, one k-wide row per population,
// read through the row accessors (QueueLenRow, ResidenceRow, DemandsRow)
// and, for utilizations, the Util row views. A Solver grows the trajectory
// geometrically: extending to a larger population appends rows without
// copying or re-solving the prefix, and rows already handed out via Prefix
// keep pointing at their original backing and stay immutable. A
// constant-demand trajectory stores its demand vector once, for every row.
type Result struct {
	// Algorithm names the solver that produced the result.
	Algorithm string
	// ModelName echoes the solved model's name.
	ModelName string
	// ThinkTime is the Z used.
	ThinkTime float64
	// StationNames are the station labels, defining the station axis of the
	// two-dimensional metrics.
	StationNames []string
	// N[i] is the population of step i (always i+1 for these solvers).
	N []int
	// X[i] is system throughput at population N[i] (transactions/second).
	X []float64
	// R[i] is the mean response time at population N[i] (seconds).
	R []float64
	// Cycle[i] is the mean cycle time R+Z (seconds), the quantity the
	// paper reports as "response time" in its deviation tables.
	Cycle []float64
	// Util[i][k] is the per-server utilization of station k in [0, 1]
	// (X·D_k/C_k), the quantity plotted in the paper's Fig. 9.
	Util [][]float64

	// Growable backing. Every per-station metric is a flat column: row i
	// is the k-wide window [i·k, (i+1)·k) of one buffer (see rowOf). Util
	// alone also keeps a row-header array, uRows, behind its public view.
	// appendRow only reslices, so a step inside reserved capacity
	// allocates nothing.
	k       int // stations per row
	capRows int // allocated row capacity

	// Deep-solve geometry. A dense trajectory starting at population 1 has
	// stride ≤ 1, basePop 0 and solvedN == len(N); row i holds population
	// i+1. A decimated trajectory (stride > 1) stores only populations
	// divisible by stride plus each run's final population; a chunk
	// trajectory (basePop > 0) stores populations basePop+1..solvedN. In
	// both cases N[i] is authoritative and rows stay sorted by population.
	stride  int // store every stride-th population (≤ 1 means dense)
	basePop int // recursion was seeded at this population (rows start after it)
	solvedN int // largest population the recursion has advanced through
	staged  bool

	// A decimated trajectory rebuilds the recursion state at each stored
	// row from the row itself (CheckpointAt), through state. Only what a
	// row cannot rebuild — state that depends on the recursion's history —
	// is stored, back to back in hist: row i's part ends at histEnd[i].
	// Dense trajectories leave all three nil.
	state   rowState
	hist    []float64
	histEnd []int

	nBuf   []int
	xBuf   []float64
	rBuf   []float64
	cycBuf []float64

	// The columns' lengths are the stored rows', so that rowOf panics on any
	// other row. dCol holds the demands of a trajectory whose demands vary
	// by population (MVASD); a constant-demand trajectory leaves it nil and
	// shares the one read-only row dConst among all its rows instead.
	qCol, uCol, resCol, dCol []float64
	dConst                   []float64
	uRows                    [][]float64
}

// rowOf returns row i of a k-wide flat column: a k-length window whose
// capacity ends with it, so an append to it cannot spill into the next row.
func rowOf(col []float64, k, i int) []float64 {
	hi := (i + 1) * k
	_ = col[hi-1] // i must be a stored row
	return col[hi-k : hi : hi]
}

// QueueLenRow returns the mean number of jobs at each station in row i.
// Like every row accessor, it returns a view of the stored row: treat it
// as read-only.
func (r *Result) QueueLenRow(i int) []float64 { return rowOf(r.qCol, r.k, i) }

// ResidenceRow returns the residence time V_k·R_k of each station in row i
// (seconds).
func (r *Result) ResidenceRow(i int) []float64 { return rowOf(r.resCol, r.k, i) }

// DemandsRow returns the service demand each station used in row i:
// varying for MVASD, constant otherwise. Every row of a constant-demand
// trajectory returns the same shared slice.
func (r *Result) DemandsRow(i int) []float64 {
	if r.dConst != nil {
		_ = r.N[i] // i must be a stored row
		return r.dConst
	}
	return rowOf(r.dCol, r.k, i)
}

// newEmptyResult allocates a zero-length Result for m. demands is the one
// demand vector every row of a constant-demand trajectory shares, which
// the Result then owns; nil means the demands vary by row.
func newEmptyResult(algorithm string, m *queueing.Model, demands []float64) *Result {
	k := len(m.Stations)
	r := &Result{
		Algorithm:    algorithm,
		ModelName:    m.Name,
		ThinkTime:    m.ThinkTime,
		StationNames: make([]string, k),
		k:            k,
		dConst:       demands,
	}
	for i, st := range m.Stations {
		r.StationNames[i] = st.Name
	}
	return r
}

// reserve grows the backing buffers to hold at least n population steps.
// Growth is geometric and allocates fresh buffers: rows previously exposed
// through Prefix keep their old backing, so concurrent readers of a published
// prefix never observe writes from a later extension.
func (r *Result) reserve(n int) {
	if n <= r.capRows {
		return
	}
	newCap := 2 * r.capRows
	if newCap < n {
		newCap = n
	}
	if newCap < 8 {
		newCap = 8
	}
	rows, k := len(r.N), r.k

	nBuf := make([]int, newCap)
	copy(nBuf, r.nBuf[:rows])
	xBuf := make([]float64, newCap)
	copy(xBuf, r.xBuf[:rows])
	rBuf := make([]float64, newCap)
	copy(rBuf, r.rBuf[:rows])
	cycBuf := make([]float64, newCap)
	copy(cycBuf, r.cycBuf[:rows])
	r.nBuf, r.xBuf, r.rBuf, r.cycBuf = nBuf, xBuf, rBuf, cycBuf

	grow := func(col []float64) []float64 {
		nc := make([]float64, rows*k, newCap*k)
		copy(nc, col)
		return nc
	}
	r.qCol, r.uCol, r.resCol = grow(r.qCol), grow(r.uCol), grow(r.resCol)
	if r.dConst == nil {
		r.dCol = grow(r.dCol)
	}
	r.uRows = make([][]float64, newCap)
	uCol := r.uCol[:newCap*k]
	for i := range r.uRows {
		r.uRows[i] = rowOf(uCol, k, i)
	}
	if r.stride > 1 {
		// Every stored row of a decimated trajectory records where its
		// history ends.
		histEnd := make([]int, newCap)
		copy(histEnd, r.histEnd[:rows])
		r.histEnd = histEnd
	}

	r.capRows = newCap
	r.reslice(rows)
}

// rowsForPop returns the number of stored rows a run through population
// maxN will occupy, given the trajectory's stride and current frontier.
func (r *Result) rowsForPop(maxN int) int {
	if maxN <= r.solvedN {
		return len(r.N)
	}
	if r.stride <= 1 {
		return len(r.N) + maxN - r.solvedN
	}
	// Kept rows in (solvedN, maxN]: the stride multiples, plus the final
	// population when unaligned.
	return len(r.N) + maxN/r.stride - r.solvedN/r.stride + 1
}

// reslice points the public views at the first n rows of the backing.
func (r *Result) reslice(n int) {
	r.N = r.nBuf[:n]
	r.X = r.xBuf[:n]
	r.R = r.rBuf[:n]
	r.Cycle = r.cycBuf[:n]
	r.Util = r.uRows[:n]
	k := r.k
	r.qCol, r.uCol, r.resCol = r.qCol[:n*k], r.uCol[:n*k], r.resCol[:n*k]
	if r.dConst == nil {
		r.dCol = r.dCol[:n*k]
	}
}

// appendRow exposes the next dense population row for the solver step to
// fill. Within reserved capacity this is a pure reslice and allocates
// nothing.
func (r *Result) appendRow() {
	rows := len(r.N)
	if rows == r.capRows {
		r.reserve(rows + 1)
	}
	n := r.basePop + rows + 1
	r.nBuf[rows] = n
	r.solvedN = n
	r.reslice(rows + 1)
}

// stageRow exposes a row for population n and returns its index. A staged
// row is provisional: a later stageRow for a higher population reuses it
// (that is how a decimated run skips populations without growing the
// trajectory), commitStaged keeps it, dropStaged discards it. Staged rows
// are always beyond every published prefix, so overwriting them never
// mutates a snapshot.
func (r *Result) stageRow(n int) int {
	if !r.staged {
		r.stageNewRow()
	}
	i := len(r.N) - 1
	r.N[i] = n
	return i
}

// stageNewRow exposes and stages one more row: stageRow's slow path, kept
// apart so that stageRow inlines into the run loop.
func (r *Result) stageNewRow() {
	rows := len(r.N)
	if rows == r.capRows {
		r.reserve(rows + 1)
	}
	r.reslice(rows + 1)
	r.staged = true
}

// commitStaged makes the currently staged row permanent.
func (r *Result) commitStaged() { r.staged = false }

// dropStaged discards the staged row, if any (used when a step fails so the
// committed prefix stays consistent and resumable).
func (r *Result) dropStaged() {
	if r.staged {
		r.reslice(len(r.N) - 1)
		r.staged = false
	}
}

// truncate drops all but the first rows stored rows (used to discard a
// failed restore so the solver stays fresh).
func (r *Result) truncate(rows int) {
	if rows >= 0 && rows < len(r.N) {
		r.reslice(rows)
		r.staged = false
		if rows == 0 {
			r.solvedN = r.basePop
		} else {
			r.solvedN = r.nBuf[rows-1]
		}
		if r.stride > 1 {
			r.hist = r.hist[:r.histStart(rows)]
		}
	}
}

// Len returns the number of stored population rows. For dense trajectories
// this equals the largest solved population; decimated or chunked
// trajectories store fewer rows than SolvedN.
func (r *Result) Len() int { return len(r.N) }

// SolvedN returns the largest population the recursion has advanced
// through. For dense full trajectories it equals Len(); a decimated solve
// advances through every population while storing only every stride-th row.
func (r *Result) SolvedN() int {
	if r.solvedN == 0 && len(r.N) > 0 {
		// Externally assembled results (RestoreResult round-trips, hand-built
		// views) may predate the solvedN bookkeeping; the last row is
		// authoritative for them.
		return r.N[len(r.N)-1]
	}
	return r.solvedN
}

// Stride returns the decimation stride (1 for dense trajectories).
func (r *Result) Stride() int {
	if r.stride < 1 {
		return 1
	}
	return r.stride
}

// BasePop returns the population the recursion was seeded at: 0 for a cold
// solve, the checkpoint's population for a chunk solved via ResumeFrom.
// Stored rows cover populations BasePop+1..SolvedN.
func (r *Result) BasePop() int { return r.basePop }

// IndexOf returns the stored row index holding population n, or -1 when n
// was skipped by decimation or is outside the stored range. Dense lookups
// are O(1); decimated lookups binary-search the population column.
func (r *Result) IndexOf(n int) int {
	rows := len(r.N)
	if rows == 0 {
		return -1
	}
	if r.stride <= 1 {
		i := n - r.basePop - 1
		if i < 0 || i >= rows {
			return -1
		}
		return i
	}
	lo, hi := 0, rows
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.N[mid] < n {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < rows && r.N[lo] == n {
		return lo
	}
	return -1
}

// Prefix returns a read-only view of the first n population steps. The view
// shares row storage with r but is safe against later extensions: appends
// within capacity only touch rows ≥ n, and growth reallocates, leaving the
// view's backing untouched. Mutating a view corrupts the parent; treat it as
// immutable.
func (r *Result) Prefix(n int) (*Result, error) {
	if r.Stride() != 1 || r.basePop != 0 {
		return nil, fmt.Errorf("core: prefix of a decimated or chunked trajectory (stride %d, base %d); use PrefixPop",
			r.Stride(), r.basePop)
	}
	if n < 1 || n > len(r.N) {
		return nil, fmt.Errorf("core: prefix %d outside solved range 1..%d", n, len(r.N))
	}
	return r.view(n, n), nil
}

// PrefixPop returns a read-only view of every stored row with population
// ≤ n, for any trajectory geometry. n must not exceed SolvedN; the view's
// SolvedN is n (the recursion demonstrably advanced through it), so a
// decimated view may report SolvedN beyond its last stored row — or hold no
// rows at all when n is below the first stored population. The same
// immutability guarantees as Prefix apply.
func (r *Result) PrefixPop(n int) (*Result, error) {
	if n < 1 || n <= r.basePop || n > r.SolvedN() {
		return nil, fmt.Errorf("core: prefix population %d outside solved range %d..%d",
			n, r.basePop+1, r.SolvedN())
	}
	return r.view(r.rowsThrough(n), n), nil
}

// rowsThrough returns the number of stored rows with population ≤ n.
func (r *Result) rowsThrough(n int) int {
	rows := len(r.N)
	if r.stride <= 1 {
		return max(0, min(rows, n-r.basePop))
	}
	lo, hi := 0, rows
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.N[mid] <= n {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// view builds the read-only snapshot shared by Prefix and PrefixPop: the
// first rows stored rows, with the recursion known to have advanced through
// population solvedN.
func (r *Result) view(rows, solvedN int) *Result {
	v := &Result{
		Algorithm:    r.Algorithm,
		ModelName:    r.ModelName,
		ThinkTime:    r.ThinkTime,
		StationNames: r.StationNames,
		N:            r.N[:rows:rows],
		X:            r.X[:rows:rows],
		R:            r.R[:rows:rows],
		Cycle:        r.Cycle[:rows:rows],
		Util:         r.Util[:rows:rows],
		k:            r.k,
		qCol:         r.qCol[: rows*r.k : rows*r.k],
		uCol:         r.uCol[: rows*r.k : rows*r.k],
		resCol:       r.resCol[: rows*r.k : rows*r.k],
		dConst:       r.dConst,
		stride:       r.stride,
		basePop:      r.basePop,
		solvedN:      solvedN,
	}
	if r.dConst == nil {
		v.dCol = r.dCol[: rows*r.k : rows*r.k]
	}
	if r.stride > 1 {
		// Rows past the view only ever append to hist beyond histEnd[rows-1].
		v.state, v.hist, v.histEnd = r.state, r.hist, r.histEnd[:rows:rows]
	}
	return v
}

// histStart returns where stored row i's history begins in hist.
func (r *Result) histStart(i int) int {
	if i == 0 {
		return 0
	}
	return r.histEnd[i-1]
}

// CheckpointAt rebuilds the recursion state at stored row i of a decimated
// trajectory: the checkpoint a Solver.Checkpoint taken right after the row
// was stored returns, float for float. Most of that state is the row itself
// — its queue lengths, and for the multi-server recursions the closed-form
// marginals at u = X·D_k — so only history-dependent state (verbatim
// Algorithm-2 marginals, load-dependent distributions) is stored beside the
// rows. The checkpoint owns fresh backing. CheckpointAt returns nil for a
// dense trajectory, whose rows keep no state, and for i outside the stored
// rows.
func (r *Result) CheckpointAt(i int) *Checkpoint {
	if r.state == nil || i < 0 || i >= len(r.N) {
		return nil
	}
	cp := &Checkpoint{Algorithm: r.Algorithm, N: r.N[i]}
	r.state.rebuild(cp, r, i, r.hist[r.histStart(i):r.histEnd[i]])
	return cp
}

// At returns the (X, R, Cycle) triple at population n, or an error if n is
// outside the stored rows (including populations skipped by decimation; see
// Recover for those).
func (r *Result) At(n int) (x, resp, cycle float64, err error) {
	i := r.IndexOf(n)
	if i < 0 {
		return 0, 0, 0, fmt.Errorf("core: population %d outside solved range 1..%d", n, len(r.N))
	}
	return r.X[i], r.R[i], r.Cycle[i], nil
}

// MaxThroughput returns the largest throughput in the trajectory and the
// population at which it is attained.
func (r *Result) MaxThroughput() (x float64, n int) {
	for i, v := range r.X {
		if v > x {
			x, n = v, r.N[i]
		}
	}
	return x, n
}

// FinalUtilization returns the per-station utilization row at the largest
// solved population.
func (r *Result) FinalUtilization() []float64 {
	if len(r.Util) == 0 {
		return nil
	}
	out := make([]float64, len(r.Util[len(r.Util)-1]))
	copy(out, r.Util[len(r.Util)-1])
	return out
}

// StationIndex returns the index of the named station, or -1.
func (r *Result) StationIndex(name string) int {
	for i, s := range r.StationNames {
		if s == name {
			return i
		}
	}
	return -1
}

// UtilSeries returns the utilization trajectory of a single station.
func (r *Result) UtilSeries(station int) []float64 {
	out := make([]float64, len(r.Util))
	for i := range r.Util {
		out[i] = r.Util[i][station]
	}
	return out
}

// CheckInvariants verifies the operational-law invariants that every valid
// MVA trajectory must satisfy: Little's law N = X(R+Z) at every step and
// non-negative metrics. It returns the first violation found, or nil. Used
// by property tests and the CLI's self-check. (Monotonicity of R holds only
// for constant demands and is checked separately by CheckMonotone.)
func (r *Result) CheckInvariants() error {
	for i := range r.N {
		n := float64(r.N[i])
		if r.X[i] < 0 || r.R[i] < 0 {
			return fmt.Errorf("core: negative metric at n=%d (X=%g R=%g)", r.N[i], r.X[i], r.R[i])
		}
		lhs := r.X[i] * (r.R[i] + r.ThinkTime)
		if math.Abs(lhs-n) > 1e-6*n {
			return fmt.Errorf("core: Little's law violated at n=%d: X(R+Z)=%g", r.N[i], lhs)
		}
		qsum := 0.0
		for _, q := range r.QueueLenRow(i) {
			if q < -1e-9 {
				return fmt.Errorf("core: negative queue length at n=%d", r.N[i])
			}
			qsum += q
		}
		if qsum > n*(1+1e-6)+1e-6 {
			return fmt.Errorf("core: queued population %g exceeds N=%d", qsum, r.N[i])
		}
	}
	return nil
}

// CheckMonotone verifies that X is non-decreasing and R is non-decreasing in
// n, which holds for exact MVA with constant demands (but not necessarily
// for MVASD, whose demands fall with concurrency).
func (r *Result) CheckMonotone() error {
	prevR, prevX := 0.0, 0.0
	for i := range r.N {
		if r.R[i] < prevR-1e-9*math.Max(prevR, 1) {
			return fmt.Errorf("core: response time decreased at n=%d: %g < %g", r.N[i], r.R[i], prevR)
		}
		if r.X[i] < prevX-1e-9*math.Max(prevX, 1) {
			return fmt.Errorf("core: throughput decreased at n=%d: %g < %g", r.N[i], r.X[i], prevX)
		}
		prevR, prevX = r.R[i], r.X[i]
	}
	return nil
}
