package core

import (
	"fmt"
	"math"

	"repro/internal/queueing"
)

// OpenResult is the steady-state solution of an open product-form network.
type OpenResult struct {
	// Lambda is the system arrival rate (transactions/second).
	Lambda float64
	// Stable reports whether every station satisfies ρ < 1; when false,
	// the per-station metrics of saturated stations are +Inf.
	Stable bool
	// StationNames labels the per-station slices.
	StationNames []string
	// Util[k] is station k's per-server utilization ρ_k.
	Util []float64
	// Residence[k] is V_k·W_k, the total time per transaction at station k
	// including queueing (seconds).
	Residence []float64
	// QueueLen[k] is the mean number of customers at station k.
	QueueLen []float64
	// ResponseTime is Σ_k V_k·W_k.
	ResponseTime float64
	// Population is the mean number in system, λ·R (Little's law).
	Population float64
}

// OpenNetwork solves the open (Jackson) network with Poisson arrivals of
// rate lambda: each station is treated as an independent M/M/C_k queue with
// arrival rate λ·V_k (Delay stations as M/G/∞). This is the analysis the
// paper's Section 7 gestures at for "open systems where throughput can be
// modified much easier rather than increasing the concurrency" — here λ is
// the control knob.
func OpenNetwork(m *queueing.Model, lambda float64) (*OpenResult, error) {
	if err := m.ValidateShape(); err != nil {
		return nil, err
	}
	if lambda < 0 || math.IsNaN(lambda) {
		return nil, fmt.Errorf("%w: arrival rate %g", ErrBadRun, lambda)
	}
	demands := m.Demands()
	k := len(m.Stations)
	res := &OpenResult{
		Lambda:       lambda,
		Stable:       true,
		StationNames: make([]string, k),
		Util:         make([]float64, k),
		Residence:    make([]float64, k),
		QueueLen:     make([]float64, k),
	}
	for i, st := range m.Stations {
		res.StationNames[i] = st.Name
		d := demands[i] // V·S: per-transaction demand
		if d == 0 {
			continue
		}
		if st.Kind == queueing.Delay {
			res.Residence[i] = d
			res.QueueLen[i] = lambda * d
			res.ResponseTime += d
			continue
		}
		c := float64(st.Servers)
		a := lambda * d // offered load in Erlangs (λ_k/µ_k with visits folded)
		rho := a / c
		res.Util[i] = rho
		if rho >= 1 {
			res.Stable = false
			res.Residence[i] = math.Inf(1)
			res.QueueLen[i] = math.Inf(1)
			res.ResponseTime = math.Inf(1)
			continue
		}
		// Per-visit service time and arrival rate at the station.
		s := st.ServiceTime
		lam := lambda * st.Visits
		pw := ErlangC(st.Servers, a)
		wq := 0.0
		if lam > 0 {
			wq = pw * s / (c * (1 - rho))
		}
		w := s + wq // per-visit sojourn
		res.Residence[i] = st.Visits * w
		res.QueueLen[i] = lam * w
		if !math.IsInf(res.ResponseTime, 1) {
			res.ResponseTime += res.Residence[i]
		}
	}
	if res.Stable {
		res.Population = lambda * res.ResponseTime
	} else {
		res.Population = math.Inf(1)
	}
	return res, nil
}

// SaturationRate returns the largest stable arrival rate of the open
// network, min_k C_k/D_k over queueing stations (+Inf for pure delays).
func SaturationRate(m *queueing.Model) float64 {
	rate := math.Inf(1)
	for _, st := range m.Stations {
		if st.Kind == queueing.Delay || st.Demand() == 0 {
			continue
		}
		rate = math.Min(rate, float64(st.Servers)/st.Demand())
	}
	return rate
}

// ErlangB evaluates the Erlang-B blocking probability for c servers and
// offered load a Erlangs, via the numerically stable recurrence
// B(0)=1, B(k) = a·B(k−1)/(k + a·B(k−1)).
func ErlangB(c int, a float64) float64 {
	if c < 0 || a < 0 {
		panic(fmt.Sprintf("core.ErlangB: c=%d a=%g", c, a))
	}
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b
}

// ErlangC evaluates the Erlang-C waiting probability (probability an
// arrival must queue) for c servers and offered load a Erlangs, derived
// from Erlang B: C = B / (1 − ρ(1 − B)) with ρ = a/c. Requires ρ < 1.
func ErlangC(c int, a float64) float64 {
	if c <= 0 {
		panic(fmt.Sprintf("core.ErlangC: c=%d", c))
	}
	rho := a / float64(c)
	if rho >= 1 {
		return 1
	}
	b := ErlangB(c, a)
	return b / (1 - rho*(1-b))
}
