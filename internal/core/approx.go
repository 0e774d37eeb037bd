package core

import (
	"fmt"

	"repro/internal/queueing"
)

// SeidmannTransform returns a copy of the model with every C-server station
// replaced by Seidmann's approximation: a single-server station with demand
// D/C in series with a pure delay of D·(C−1)/C. This classic device lets
// single-server-only solvers (exact MVA, multi-class MVA) handle multi-core
// resources with far better accuracy than the naive D/C folding, because
// the delay restores the full service time seen by an unqueued customer.
// Delay and single-server stations pass through unchanged.
func SeidmannTransform(m *queueing.Model) *queueing.Model {
	out := &queueing.Model{Name: m.Name + " (seidmann)", ThinkTime: m.ThinkTime}
	for _, st := range m.Stations {
		if st.Kind == queueing.Delay || st.Servers == 1 {
			out.Stations = append(out.Stations, st)
			continue
		}
		c := float64(st.Servers)
		queueStage := st
		queueStage.Servers = 1
		queueStage.ServiceTime = st.ServiceTime / c
		out.Stations = append(out.Stations, queueStage)
		delayStage := st
		delayStage.Name = st.Name + "/transit"
		delayStage.Kind = queueing.Delay
		delayStage.Servers = 1
		delayStage.ServiceTime = st.ServiceTime * (c - 1) / c
		out.Stations = append(out.Stations, delayStage)
	}
	return out
}

// SeidmannMVA solves the model with exact single-server MVA after the
// Seidmann multi-server transform — a third way (besides Algorithm 2 and
// exact load-dependent MVA) to handle multi-core CPUs, included for the
// ablation study. The result's stations are those of the transformed model.
func SeidmannMVA(m *queueing.Model, maxN int) (*Result, error) {
	if err := validateRun(m, maxN); err != nil {
		return nil, err
	}
	res, err := ExactMVA(SeidmannTransform(m), maxN)
	if err != nil {
		return nil, err
	}
	res.Algorithm = "seidmann-mva"
	return res, nil
}

// SchweitzerMultiServer solves the network with the approximate
// (Bard–Schweitzer) MVA combined with the same multi-server correction
// factor Algorithm 2 uses — the combination the paper attributes to its
// refs [19]/[20] and criticises ("as this is based on the approximate
// version of MVA, errors in prediction compounded with variation in service
// demands can lead to inaccurate outputs"). Included as the baseline that
// motivates the paper's choice of the *exact* recursion.
func SchweitzerMultiServer(m *queueing.Model, maxN int, opts SchweitzerOptions) (*Result, error) {
	if err := validateRun(m, maxN); err != nil {
		return nil, err
	}
	opts.defaults()
	k := len(m.Stations)
	demands := m.Demands()
	res := newEmptyResult("schweitzer-multiserver", m, demands)
	res.reserve(maxN)
	perServer := make([]float64, k)
	for i, stn := range m.Stations {
		perServer[i] = demands[i] / float64(stn.Servers)
	}
	// One state serves every population: each starts from the empty
	// network, and the closed-form memo carries over, since its entries
	// depend on the utilization alone.
	st := newMultiServerState(m)
	defer st.release()
	q := make([]float64, k)
	for n := 1; n <= maxN; n++ {
		// Fixed point at population n with the arrival-theorem
		// approximation Q(n−1) ≈ (n−1)/n·Q(n) and the closed-form
		// multi-server marginal probabilities of multiServerStep.
		st.reset()
		res.appendRow()
		for i := range q {
			q[i] = float64(n) / float64(k)
		}
		var x, rTotal float64
		converged := false
		for iter := 0; iter < opts.MaxIter; iter++ {
			// Seed the state with the scaled queue estimate, then run one
			// multi-server step to get residence times and probabilities.
			for i := range q {
				st.queue[i] = float64(n-1) / float64(n) * q[i]
			}
			xn, rT := multiServerStep(m, st, demands, perServer, n, false, res.ResidenceRow(n-1))
			worst := 0.0
			for i := range q {
				nq := st.queue[i] // = xn · resid, set by the step
				rel := absf(nq-q[i]) / maxf(q[i], 1e-12)
				if rel > worst {
					worst = rel
				}
				q[i] = nq
			}
			x, rTotal = xn, rT
			if worst < opts.Tol {
				converged = true
				break
			}
		}
		if !converged {
			return nil, fmt.Errorf("%w: schweitzer-multiserver did not converge at n=%d", ErrBadRun, n)
		}
		i := n - 1
		qRow, uRow := res.QueueLenRow(i), res.Util[i]
		for j, stn := range m.Stations {
			qRow[j] = q[j]
			if stn.Kind == queueing.Delay {
				uRow[j] = 0
			} else {
				uRow[j] = minf(x*demands[j]/float64(stn.Servers), 1)
			}
		}
		res.X[i] = x
		res.R[i] = rTotal
		res.Cycle[i] = rTotal + m.ThinkTime
	}
	return res, nil
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
