package core

import (
	"fmt"
	"math"

	"repro/internal/queueing"
)

// ClassSpec describes one customer class of a multi-class closed network.
type ClassSpec struct {
	// Name labels the class (e.g. "browse", "checkout").
	Name string
	// Population is the number of customers of this class.
	Population int
	// ThinkTime is the class's terminal think time Z_c in seconds.
	ThinkTime float64
	// Demands[k] is the class's service demand at station k in seconds.
	Demands []float64
}

// MulticlassResult holds the exact multi-class MVA solution at the full
// population mix.
type MulticlassResult struct {
	// ClassNames mirrors the input classes.
	ClassNames []string
	// X[c] is class c's throughput.
	X []float64
	// R[c] is class c's response time.
	R []float64
	// QueueLen[k] is the aggregate mean queue length at station k.
	QueueLen []float64
	// Util[k] is the aggregate utilization of station k (0..1 per server).
	Util []float64
}

// MulticlassMVA solves a multi-class closed network with the exact
// multi-class MVA recursion over population vectors:
//
//	R_{c,k}(n) = D_{c,k} · (1 + Q_k(n − e_c))
//	X_c(n)     = n_c / (Z_c + Σ_k R_{c,k}(n))
//	Q_k(n)     = Σ_c X_c(n) · R_{c,k}(n)
//
// The paper confines itself to single-class models ("we make use of single
// class models wherein the customers are assumed to be indistinguishable");
// this solver is the natural extension for mixed workloads such as VINS's
// four workflows run concurrently. Stations must be single-server or Delay
// (exact multi-class multi-server MVA has no product-form recursion of this
// simple shape). Time and memory are O(K·Π(N_c+1)).
func MulticlassMVA(m *queueing.Model, classes []ClassSpec) (*MulticlassResult, error) {
	if err := m.ValidateShape(); err != nil {
		return nil, err
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("%w: no classes", ErrBadRun)
	}
	k := len(m.Stations)
	for _, st := range m.Stations {
		if st.Servers != 1 && st.Kind != queueing.Delay {
			return nil, fmt.Errorf("%w: multiclass MVA requires single-server stations (station %q has %d)",
				ErrBadRun, st.Name, st.Servers)
		}
	}
	for _, c := range classes {
		if c.Population < 0 {
			return nil, fmt.Errorf("%w: class %q population %d", ErrBadRun, c.Name, c.Population)
		}
		if len(c.Demands) != k {
			return nil, fmt.Errorf("%w: class %q has %d demands for %d stations",
				ErrBadRun, c.Name, len(c.Demands), k)
		}
		if c.ThinkTime < 0 {
			return nil, fmt.Errorf("%w: class %q negative think time", ErrBadRun, c.Name)
		}
	}
	nc := len(classes)
	// Flattened population-vector index: mixed-radix with digit c in
	// [0, N_c], stride product of lower digits.
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
	// queue[idx*k + j] = Q_j at population vector idx.
	queue := make([]float64, total*k)
	// Iterate vectors in an order where n − e_c always precedes n: plain
	// lexicographic order over the flattened index has that property, since
	// removing a customer strictly decreases the index.
	vec := make([]int, nc)
	rck := make([][]float64, nc)
	for c := range rck {
		rck[c] = make([]float64, k)
	}
	xc := make([]float64, nc)
	var last MulticlassResult
	for idx := 1; idx < total; idx++ {
		// Decode idx into the population vector.
		rem := idx
		for c := nc - 1; c >= 0; c-- {
			vec[c] = rem / strides[c]
			rem %= strides[c]
		}
		for c := range classes {
			xc[c] = 0
			if vec[c] == 0 {
				continue
			}
			prev := (idx - strides[c]) * k
			sum := 0.0
			for j, st := range m.Stations {
				d := classes[c].Demands[j]
				if st.Kind == queueing.Delay {
					rck[c][j] = d
				} else {
					rck[c][j] = d * (1 + queue[prev+j])
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
					u += xc[c] * classes[c].Demands[j]
				}
				last.Util[j] = math.Min(u, 1)
			}
		}
	}
	if total == 1 {
		// All-zero populations: an empty but valid result.
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
