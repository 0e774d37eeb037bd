package main

import "sort"

// quantile is the q-quantile of sorted by linear interpolation between the
// two nearest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quartiles returns Q1, median and Q3 as Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive" method),
// so spreads printed here match the ones computed from a results file in
// Python. One value is its own quartiles.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	ld := len(s)
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}
