package selfmodel

import (
	"io"

	"repro/internal/promtext"
)

// zeroHist renders the latency histogram's stable schema before any monitor
// exists (the nil-receiver scrape path).
var zeroHist = func() *promtext.Histogram {
	h, err := promtext.NewHistogram(promtext.LatencyBounds()...)
	if err != nil {
		panic(err)
	}
	return h
}()

// WriteMetrics renders the self-model in Prometheus text format. Every
// solverd_self_* family is emitted from the first scrape — zero-valued until
// the first window closes, with one series per DeviationMetrics entry — so
// the exposition lint and dashboards see a stable schema. A nil receiver is
// valid and renders the same families at zero.
func (m *Monitor) WriteMetrics(w io.Writer) error {
	var (
		rep      *Report
		hist     = zeroHist
		inFlight int
		sampled  uint64
	)
	if m != nil {
		m.mu.Lock()
		hist = m.latHist
		inFlight = m.inFlight
		sampled = m.totalCompletions
		m.mu.Unlock()
		rep = m.rep.Load()
	}
	if rep == nil {
		rep = &Report{}
	}
	devRatio := make(map[string]float64, len(rep.Deviations))
	devBreaches := make(map[string]uint64, len(rep.Deviations))
	for _, d := range rep.Deviations {
		devRatio[d.Metric] = d.Ratio
		devBreaches[d.Metric] = d.Breaches
	}
	b01 := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}

	p := promtext.NewWriter(w)
	p.Counter("solverd_self_windows_total", "Self-model sampling windows closed.").Uint(rep.Windows)
	p.Counter("solverd_self_empty_windows_total", "Windows closed with no completed sampled requests.").Uint(rep.EmptyWindows)
	// Read live, not from the published report: completions land here the
	// moment a sampled request finishes, not at the next window close.
	p.Counter("solverd_self_sampled_requests_total", "Requests the self-model has sampled to completion.").Uint(sampled)
	p.Counter("solverd_self_refits_total", "Deviation-breach-triggered self-model re-fits.").Uint(rep.Refits)
	p.Gauge("solverd_self_in_flight", "Sampled requests currently in flight.").Int(inFlight)
	p.Gauge("solverd_self_snapshot_version", "Version of the self-model demand snapshot the curve is solved from (0 before the first fit).").Uint(rep.SnapshotVersion)

	p.Gauge("solverd_self_observed_throughput", "Latest window's observed throughput (requests/s).").Float(rep.ObservedX)
	p.Gauge("solverd_self_predicted_throughput", "Self-model predicted throughput at the observed concurrency (requests/s).").Float(rep.PredictedX)
	p.Gauge("solverd_self_observed_p50_seconds", "Latest window's observed median request latency.").Float(rep.ObservedP50)
	p.Gauge("solverd_self_observed_p99_seconds", "Latest window's observed p99 request latency.").Float(rep.ObservedP99)
	p.Gauge("solverd_self_predicted_p50_seconds", "Self-model predicted median latency at the observed concurrency.").Float(rep.PredictedP50)
	p.Gauge("solverd_self_predicted_p99_seconds", "Self-model predicted p99 latency at the observed concurrency.").Float(rep.PredictedP99)

	p.Gauge("solverd_self_saturated", "Whether the predicted curve reaches the saturation knee inside the solved range (0/1).").Int(b01(rep.Saturated))
	p.Gauge("solverd_self_knee_concurrency", "Predicted saturation knee: first concurrency at the worker-utilization threshold (0 until saturated).").Int(rep.KneeN)
	p.Gauge("solverd_self_p99_limit_concurrency", "Largest concurrency whose predicted p99 honors the configured bound (0 without a bound).").Int(rep.P99LimitN)
	p.Gauge("solverd_self_max_safe_concurrency", "Predicted max concurrency before saturation and the p99 bound.").Int(rep.MaxSafeN)
	p.Gauge("solverd_self_headroom", "Predicted max safe concurrency minus current in-flight (negative past saturation).").Int(rep.MaxSafeN - inFlight)
	p.Gauge("solverd_self_shed_advised", "Advisory shed signal: the node predicts it is at or past its safe concurrency (0/1; acted on by the admission gate in enforce mode).").Int(b01(rep.Ready && rep.MaxSafeN-inFlight <= 0))

	p.Gauge("solverd_self_deviation_ratio", "Latest |observed-predicted|/observed per self-model metric.")
	for _, metric := range DeviationMetrics {
		p.Float(devRatio[metric], "metric", metric)
	}
	p.Counter("solverd_self_deviation_breaches_total", "Windows whose self-model deviation exceeded the paper's bound, per metric.")
	for _, metric := range DeviationMetrics {
		p.Uint(devBreaches[metric], "metric", metric)
	}

	p.Histogram("solverd_self_request_seconds", "Sampled request wall time observed by the self-model.")
	if m != nil {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	p.Buckets(hist)
	return p.Err()
}
