package promtext

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a fixed-bucket histogram in the Prometheus style: values are
// counted into buckets by configured upper bounds, with an implicit +Inf
// bucket, a running sum and a total count. It is built for streaming
// observation (request latencies, fixed-point iteration counts) and rendered
// by Writer.Buckets. It is not safe for concurrent use; callers serialise
// access.
type Histogram struct {
	bounds []float64 // ascending upper bounds, excluding +Inf
	counts []uint64  // per-bucket counts; counts[len(bounds)] is the +Inf bucket
	sum    float64
	count  uint64

	// exemplars[i] is the most recent traced observation that landed in
	// bucket i (empty traceID: none). Allocated lazily on the first
	// ObserveWithExemplar so the plain Observe path stays allocation-free.
	exemplars []exemplar
}

// exemplar is one traced observation attached to a bucket, in the
// OpenMetrics exemplar shape: the trace id, the observed value and its wall
// time — a p99 spike on a dashboard links straight to a stitched trace.
type exemplar struct {
	traceID     string
	value       float64
	unixSeconds float64
}

// NewHistogram builds a histogram with the given ascending upper bounds (the
// +Inf bucket is implicit and must not be passed).
func NewHistogram(bounds ...float64) (*Histogram, error) {
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			return nil, fmt.Errorf("promtext: histogram bounds not ascending: %g after %g",
				bounds[i], bounds[i-1])
		}
	}
	if len(bounds) > 0 && math.IsInf(bounds[len(bounds)-1], 1) {
		return nil, fmt.Errorf("promtext: +Inf bound is implicit")
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}, nil
}

// LatencyBounds are upper bounds (seconds) suited to solver-request
// latencies: sub-millisecond cache hits through multi-second sweeps.
func LatencyBounds() []float64 {
	return []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// IterationBounds are upper bounds suited to inner fixed-point iteration
// counts (MVASD's demand/throughput resolution, capped at 200 by default):
// roughly logarithmic from "converged immediately" to "hit the iteration
// cap".
func IterationBounds() []float64 {
	return []float64{1, 2, 3, 5, 10, 20, 50, 100, 200}
}

// Observe counts one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (bucket is "le")
	h.counts[i]++
	h.sum += v
	h.count++
}

// ObserveWithExemplar counts one value and, when traceID is non-empty,
// remembers it as the containing bucket's exemplar (most recent wins).
func (h *Histogram) ObserveWithExemplar(v float64, traceID string, unixSeconds float64) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	if h.exemplars == nil {
		h.exemplars = make([]exemplar, len(h.counts))
	}
	h.exemplars[sort.SearchFloat64s(h.bounds, v)] = exemplar{traceID: traceID, value: v, unixSeconds: unixSeconds}
}
