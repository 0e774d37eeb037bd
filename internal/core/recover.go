package core

import (
	"fmt"
)

// RecoveredRow is one re-derived population row of a decimated trajectory:
// the full per-population metrics a dense solve would have stored.
type RecoveredRow struct {
	N           int
	X, R, Cycle float64
	QueueLen    []float64
	Util        []float64
	Residence   []float64
	Demands     []float64
}

// rowCopy copies stored row i into a RecoveredRow with fresh backing.
func (r *Result) rowCopy(i int) RecoveredRow {
	return RecoveredRow{
		N:         r.N[i],
		X:         r.X[i],
		R:         r.R[i],
		Cycle:     r.Cycle[i],
		QueueLen:  append([]float64(nil), r.QueueLenRow(i)...),
		Util:      append([]float64(nil), r.Util[i]...),
		Residence: append([]float64(nil), r.ResidenceRow(i)...),
		Demands:   append([]float64(nil), r.DemandsRow(i)...),
	}
}

// Recover re-derives the requested populations from a (possibly decimated)
// trajectory. ns must be ascending and within 1..SolvedN. Populations held
// in stored rows are copied directly; skipped populations are recomputed by
// seeding a fresh solver — built by the supplied factory, which must
// reproduce the solver configuration that produced r — with the recursion
// state rebuilt at the nearest stored row at or below the population
// (CheckpointAt) and extending densely from there. Because each stepper's
// recursion is deterministic and the rebuilt state is its full state,
// recovered rows are float-for-float identical to what a dense solve
// stores; each gap costs at most stride-1 dense steps, so memory and time
// stay bounded by the decimation stride per row.
func (r *Result) Recover(ns []int, fresh func() (*Solver, error)) ([]RecoveredRow, error) {
	out := make([]RecoveredRow, 0, len(ns))
	var sub *Solver
	defer func() {
		if sub != nil {
			sub.Release()
		}
	}()
	prev := 0
	for _, n := range ns {
		if n < prev {
			return nil, fmt.Errorf("%w: recover populations must be ascending (%d after %d)", ErrBadRun, n, prev)
		}
		prev = n
		if n < 1 || n > r.SolvedN() {
			return nil, fmt.Errorf("%w: recover population %d outside solved range 1..%d", ErrBadRun, n, r.SolvedN())
		}
		if i := r.IndexOf(n); i >= 0 {
			out = append(out, r.rowCopy(i))
			continue
		}
		// The seed is the nearest stored row below n; a dense trajectory
		// keeps no state, so its recovery solves from population 0.
		seed, base := r.rowsThrough(n)-1, 0
		if seed >= 0 && r.state != nil {
			base = r.N[seed]
		}
		// Reuse the in-flight recovery solver while it is the closest seed;
		// once a nearer stored row exists, restart from it so no recovery
		// ever extends densely across more than one decimation gap.
		if sub == nil || sub.N() > n || sub.N() < base {
			if sub != nil {
				sub.Release()
				sub = nil
			}
			s2, err := fresh()
			if err != nil {
				return nil, err
			}
			if s2.Result().Algorithm != r.Algorithm {
				s2.Release()
				return nil, fmt.Errorf("%w: recover factory built %q, trajectory is %q",
					ErrBadRun, s2.Result().Algorithm, r.Algorithm)
			}
			if base > 0 {
				if err := s2.ResumeFrom(r.CheckpointAt(seed)); err != nil {
					s2.Release()
					return nil, err
				}
			}
			sub = s2
		}
		if err := sub.Run(n); err != nil {
			return nil, err
		}
		i := sub.Result().IndexOf(n)
		if i < 0 {
			return nil, fmt.Errorf("%w: recovery solver did not store population %d", ErrBadRun, n)
		}
		out = append(out, sub.Result().rowCopy(i))
	}
	return out, nil
}
