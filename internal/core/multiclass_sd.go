package core

import (
	"fmt"

	"repro/internal/queueing"
)

// MulticlassMVASD extends the exact multi-class MVA with *varying service
// demands*, the combination the paper leaves as future work ("As the service
// demand evolves with concurrency finding a general representation of this
// with a few samples is a challenge and will be explored in future work").
//
// Demands are re-evaluated at every population vector from per-class demand
// models indexed by the *total* population |n| = Σ n_c — the natural
// multi-class analogue of MVASD's SS_k^n, since the caching/batching effects
// that bend the demand curves respond to the overall load on the servers,
// not to any single class:
//
//	R_{c,k}(n) = D_{c,k}(|n|) · (1 + Q_k(n − e_c))
//
// demandModels[c] supplies class c's per-station demands (DemandAt with the
// total population; throughput-dependent models are rejected — the fixed
// point is not well-defined inside the vector recursion). Stations must be
// single-server or Delay, as in MulticlassMVA; fold multi-core stations with
// SeidmannTransform or NormalizeServers first.
func MulticlassMVASD(m *queueing.Model, classes []ClassSpec, demandModels []DemandModel) (*MulticlassResult, error) {
	if err := m.ValidateShape(); err != nil {
		return nil, err
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("%w: no classes", ErrBadRun)
	}
	if len(demandModels) != len(classes) {
		return nil, fmt.Errorf("%w: %d demand models for %d classes", ErrBadRun, len(demandModels), len(classes))
	}
	k := len(m.Stations)
	for _, st := range m.Stations {
		if st.Servers != 1 && st.Kind != queueing.Delay {
			return nil, fmt.Errorf("%w: multiclass MVASD requires single-server stations (station %q has %d)",
				ErrBadRun, st.Name, st.Servers)
		}
	}
	for c, spec := range classes {
		if spec.Population < 0 {
			return nil, fmt.Errorf("%w: class %q population %d", ErrBadRun, spec.Name, spec.Population)
		}
		if spec.ThinkTime < 0 {
			return nil, fmt.Errorf("%w: class %q negative think time", ErrBadRun, spec.Name)
		}
		dm := demandModels[c]
		if dm == nil {
			return nil, fmt.Errorf("%w: class %q has nil demand model", ErrBadRun, spec.Name)
		}
		if dm.DependsOnThroughput() {
			return nil, fmt.Errorf("%w: class %q demand model depends on throughput", ErrBadRun, spec.Name)
		}
		if dm.Stations() != k {
			return nil, fmt.Errorf("%w: class %q demand model covers %d stations, model has %d",
				ErrBadRun, spec.Name, dm.Stations(), k)
		}
	}
	nc := len(classes)
	dims := make([]int, nc)
	strides := make([]int, nc)
	total := 1
	for c := range classes {
		dims[c] = classes[c].Population + 1
		strides[c] = total
		total *= dims[c]
		if total > 50_000_000 {
			return nil, fmt.Errorf("%w: population-vector space too large (%d states)", ErrBadRun, total)
		}
	}
	queue := make([]float64, total*k)
	vec := make([]int, nc)
	rck := make([][]float64, nc)
	for c := range rck {
		rck[c] = make([]float64, k)
	}
	xc := make([]float64, nc)
	// Demand cache: demands depend only on (class, |n|), so evaluate each
	// total-population level once.
	maxTotal := 0
	for _, spec := range classes {
		maxTotal += spec.Population
	}
	demandAt := make([][][]float64, nc) // [class][|n|][station]
	for c := range demandAt {
		demandAt[c] = make([][]float64, maxTotal+1)
		for tot := 1; tot <= maxTotal; tot++ {
			row := make([]float64, k)
			for j := 0; j < k; j++ {
				row[j] = demandModels[c].DemandAt(j, tot, 0)
			}
			demandAt[c][tot] = row
		}
	}
	var last MulticlassResult
	makeResult := func(base int, pop int) {
		last = MulticlassResult{
			ClassNames: make([]string, nc),
			X:          make([]float64, nc),
			R:          make([]float64, nc),
			QueueLen:   make([]float64, k),
			Util:       make([]float64, k),
		}
		for c := range classes {
			last.ClassNames[c] = classes[c].Name
			last.X[c] = xc[c]
			if vec[c] > 0 {
				sum := 0.0
				for j := range m.Stations {
					sum += rck[c][j]
				}
				last.R[c] = sum
			}
		}
		for j := range m.Stations {
			last.QueueLen[j] = queue[base+j]
			u := 0.0
			for c := range classes {
				if vec[c] > 0 {
					u += xc[c] * demandAt[c][pop][j]
				}
			}
			if u > 1 {
				u = 1
			}
			last.Util[j] = u
		}
	}
	for idx := 1; idx < total; idx++ {
		rem := idx
		pop := 0
		for c := nc - 1; c >= 0; c-- {
			vec[c] = rem / strides[c]
			rem %= strides[c]
			pop += vec[c]
		}
		for c := range classes {
			xc[c] = 0
			if vec[c] == 0 {
				continue
			}
			prev := (idx - strides[c]) * k
			d := demandAt[c][pop]
			sum := 0.0
			for j, st := range m.Stations {
				if st.Kind == queueing.Delay {
					rck[c][j] = d[j]
				} else {
					rck[c][j] = d[j] * (1 + queue[prev+j])
				}
				sum += rck[c][j]
			}
			xc[c] = float64(vec[c]) / (classes[c].ThinkTime + sum)
		}
		base := idx * k
		for j := range m.Stations {
			q := 0.0
			for c := range classes {
				if vec[c] > 0 {
					q += xc[c] * rck[c][j]
				}
			}
			queue[base+j] = q
		}
		if idx == total-1 {
			makeResult(base, pop)
		}
	}
	if total == 1 {
		last = MulticlassResult{
			ClassNames: make([]string, nc),
			X:          make([]float64, nc),
			R:          make([]float64, nc),
			QueueLen:   make([]float64, k),
			Util:       make([]float64, k),
		}
		for c := range classes {
			last.ClassNames[c] = classes[c].Name
		}
	}
	return &last, nil
}
