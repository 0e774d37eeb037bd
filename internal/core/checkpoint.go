package core

import (
	"fmt"
	"math"
)

// Checkpoint is the portable recursion state of a Solver at its current
// population: everything the next population step needs beyond the model and
// the trajectory itself. It is the unit of cluster-wide cache fill — a node
// that receives a trajectory plus its checkpoint can Restore a fresh solver
// and Extend it with results bit-identical to never having moved the
// computation at all. Solver.Checkpoint copies the live state; a decimated
// trajectory keeps no checkpoints but rebuilds the one at any stored row
// from the row itself (Result.CheckpointAt).
//
// Which fields are populated depends on the algorithm:
//
//   - exact-mva, mvasd-single-server: Queue (the previous step's mean
//     queue-length vector);
//   - schweitzer-amva: Queue — the previous population's converged
//     queue-length vector, which warm-starts the next population's fixed
//     point (a checkpoint at N 0 restores to a cold balanced start);
//   - exact-mva-multiserver, mvasd, mvasd-vs-throughput: Queue plus the
//     per-station marginal queue-size probabilities in Marginal (row k has
//     one entry per server of station k; exact-mva-ld rows grow with the
//     population instead), and for the throughput-mode fixed point the
//     previous step's throughput in X (its warm start).
type Checkpoint struct {
	// Algorithm names the solver that produced the state (must match the
	// restoring solver).
	Algorithm string
	// N is the population the state belongs to: the next step solves N+1.
	N int
	// Queue is the per-station mean queue-length vector Q_k at N.
	Queue []float64
	// Marginal holds per-station marginal queue-size probabilities for the
	// multi-server algorithms; nil for single-server recursions.
	Marginal [][]float64
	// X is the throughput at N, carried for recursions that warm-start an
	// inner fixed point from it (mvasd-vs-throughput).
	X float64
}

// cloneVecs deep-copies a [][]float64 (nil stays nil) into one flat
// backing array: two allocations per checkpoint instead of one per row.
// Rows are capacity-limited, so appending to one cannot overwrite the next.
func cloneVecs(src [][]float64) [][]float64 {
	if src == nil {
		return nil
	}
	total := 0
	for _, row := range src {
		total += len(row)
	}
	flat := make([]float64, total)
	out := make([][]float64, len(src))
	off := 0
	for i, row := range src {
		if len(row) == 0 {
			continue // an empty row stays nil, as a row-by-row copy leaves it
		}
		end := off + copy(flat[off:], row)
		out[i] = flat[off:end:end]
		off = end
	}
	return out
}

// copyInto copies src into dst rows, requiring identical shapes.
func copyInto(dst, src [][]float64) error {
	if len(dst) != len(src) {
		return fmt.Errorf("%w: checkpoint has %d marginal rows, solver expects %d",
			ErrBadRun, len(src), len(dst))
	}
	for i := range dst {
		if len(dst[i]) != len(src[i]) {
			return fmt.Errorf("%w: checkpoint marginal row %d has %d entries, solver expects %d",
				ErrBadRun, i, len(src[i]), len(dst[i]))
		}
		copy(dst[i], src[i])
	}
	return nil
}

// copyQueue copies a checkpoint queue vector into the stepper's, checking
// the station count.
func copyQueue(dst, src []float64) error {
	if len(src) != len(dst) {
		return fmt.Errorf("%w: checkpoint has %d queue entries, solver expects %d",
			ErrBadRun, len(src), len(dst))
	}
	copy(dst, src)
	return nil
}

// Checkpoint captures the solver's recursion state at its current population.
// The result is a deep copy: later Run/Extend calls do not mutate it. A
// checkpoint of a fresh solver (N() == 0) is valid and restores to a fresh
// solver.
func (s *Solver) Checkpoint() (*Checkpoint, error) {
	if s.released {
		return nil, fmt.Errorf("%w: checkpoint of a released solver", ErrBadRun)
	}
	cp := &Checkpoint{Algorithm: s.res.Algorithm, N: s.res.SolvedN()}
	s.alg.checkpoint(cp)
	return cp, nil
}

// Restore seeds a fresh solver (N() == 0) with a previously solved trajectory
// and its matching checkpoint, so a subsequent Extend continues the recursion
// exactly where the checkpointed solver left off. traj must be the full
// prefix at the checkpoint's population (Result().Prefix(N) of the source
// solver, possibly round-tripped through modelio's wire form); the restored
// trajectory and any later extension are bit-identical to the source solving
// on. A constant-demand solver keeps its one demand row, so every restored
// row's demands must equal it bit for bit; and the solver's rows derive
// their queue lengths and utilizations, so every restored row's must equal
// what its X, residence times and demands derive under the solver's model,
// bit for bit. On error the solver is left fresh and usable for a cold run.
func (s *Solver) Restore(traj *Result, cp *Checkpoint) error {
	if s.released {
		return fmt.Errorf("%w: restore into a released solver", ErrBadRun)
	}
	if s.res.Len() != 0 || s.res.basePop != 0 {
		return fmt.Errorf("%w: restore into a solver at population %d (want fresh)", ErrBadRun, s.res.SolvedN())
	}
	if s.res.stride > 1 {
		// A restore replays dense rows; a decimated solver seeds from a bare
		// checkpoint instead (ResumeFrom).
		return fmt.Errorf("%w: restore into a decimated solver", ErrBadRun)
	}
	if traj == nil || cp == nil {
		return fmt.Errorf("%w: restore needs a trajectory and a checkpoint", ErrBadRun)
	}
	if traj.Algorithm != s.res.Algorithm || cp.Algorithm != s.res.Algorithm {
		return fmt.Errorf("%w: restore algorithm mismatch: trajectory %q, checkpoint %q, solver %q",
			ErrBadRun, traj.Algorithm, cp.Algorithm, s.res.Algorithm)
	}
	if cp.N != traj.Len() {
		return fmt.Errorf("%w: checkpoint at population %d, trajectory has %d", ErrBadRun, cp.N, traj.Len())
	}
	if len(traj.StationNames) != s.res.k {
		return fmt.Errorf("%w: trajectory has %d stations, solver model has %d",
			ErrBadRun, len(traj.StationNames), s.res.k)
	}
	res := s.res
	res.reserve(cp.N)
	var have, want []float64
	for i := 0; i < cp.N; i++ {
		if traj.N[i] != i+1 {
			res.truncate(0)
			return fmt.Errorf("%w: trajectory row %d has population %d", ErrBadRun, i, traj.N[i])
		}
		res.appendRow()
		res.X[i] = traj.X[i]
		res.R[i] = traj.R[i]
		res.Cycle[i] = traj.Cycle[i]
		copy(res.ResidenceRow(i), traj.ResidenceRow(i))
		if res.dConst == nil {
			copy(rowOf(res.dCol, res.k, i), traj.DemandsRow(i))
		} else if !sameBits(traj.DemandsRow(i), res.dConst) {
			res.truncate(0)
			return fmt.Errorf("%w: trajectory row %d has demands other than the model's", ErrBadRun, i)
		}
		have, want = traj.AppendQueueLenRow(have[:0], i), res.AppendQueueLenRow(want[:0], i)
		if !sameBits(have, want) {
			res.truncate(0)
			return fmt.Errorf("%w: trajectory row %d has queue lengths its rows do not derive", ErrBadRun, i)
		}
		have, want = traj.AppendUtilRow(have[:0], i), res.AppendUtilRow(want[:0], i)
		if !sameBits(have, want) {
			res.truncate(0)
			return fmt.Errorf("%w: trajectory row %d has utilizations its rows do not derive", ErrBadRun, i)
		}
		copy(res.Util[i], want)
	}
	if err := s.alg.restore(cp); err != nil {
		res.truncate(0)
		return err
	}
	return nil
}

// sameBits reports whether a and b hold the same floats, bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// RestoreResult rebuilds a Result from externally transported rows (the
// inverse of reading a Result's rows, used by modelio's wire form). It
// stores every row's demands, whatever the algorithm. The rows carry no
// station kinds, so unlike a solver's Result it cannot derive queue lengths
// and utilizations: it keeps the transported ones, and Solver.Restore
// checks them against what its own rows derive.
// All row slices must have length n; every [][]float64 row must have one
// entry per station. The returned Result owns fresh backing and can seed
// Solver.Restore.
func RestoreResult(algorithm, modelName string, thinkTime float64, stationNames []string,
	x, r, cycle []float64, queueLen, util, residence, demands [][]float64) (*Result, error) {
	n := len(x)
	if n < 1 {
		return nil, fmt.Errorf("%w: restored trajectory is empty", ErrBadRun)
	}
	k := len(stationNames)
	if k < 1 {
		return nil, fmt.Errorf("%w: restored trajectory names no stations", ErrBadRun)
	}
	if len(r) != n || len(cycle) != n ||
		len(queueLen) != n || len(util) != n || len(residence) != n || len(demands) != n {
		return nil, fmt.Errorf("%w: restored trajectory rows disagree on length", ErrBadRun)
	}
	res := &Result{
		Algorithm:    algorithm,
		ModelName:    modelName,
		ThinkTime:    thinkTime,
		StationNames: append([]string(nil), stationNames...),
		k:            k,
	}
	res.reserve(n)
	res.restoredQ = make([]float64, 0, n*k)
	for i := 0; i < n; i++ {
		if len(queueLen[i]) != k || len(util[i]) != k || len(residence[i]) != k || len(demands[i]) != k {
			return nil, fmt.Errorf("%w: restored trajectory row %d is not %d stations wide", ErrBadRun, i, k)
		}
		res.appendRow()
		res.X[i] = x[i]
		res.R[i] = r[i]
		res.Cycle[i] = cycle[i]
		res.restoredQ = append(res.restoredQ, queueLen[i]...)
		copy(res.Util[i], util[i])
		copy(res.ResidenceRow(i), residence[i])
		copy(rowOf(res.dCol, k, i), demands[i])
	}
	return res, nil
}
