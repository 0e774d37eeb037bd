package estimate

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/promtext"
	"repro/internal/telemetry"
)

// The paper's validation bounds (Section 6): MVASD predictions tracked the
// measured system within ~3% on throughput and ~9% on cycle time. A live
// deployment drifting past them means the fitted demand curves no longer
// describe the system and the sampling campaign should be re-run.
const (
	ThroughputDeviationBound = 0.03
	CycleTimeDeviationBound  = 0.09
)

// DeviationTracker compares MVASD predictions against live measurements and
// exposes the running deviation as solverd_prediction_deviation_ratio gauges.
// When an observation breaches the paper's bounds it force-records a
// "deviation" trace into the flight recorder — bypassing tail-sampling, so
// the evidence of a model gone stale is always retained.
type DeviationTracker struct {
	rec *obs.Recorder

	// jn and prof are the event journal and anomaly profile store fed on
	// every bound breach (Instrument; both nil-safe).
	jn   *journal.Journal
	prof *journal.ProfileStore

	mu sync.Mutex
	// latest deviation ratio per metric (|predicted−measured| / measured),
	// plus running sums for the mean.
	latest     map[string]float64
	sum        map[string]float64
	n          map[string]int
	exceeded   map[string]int
	violations []DeviationEvent
}

// DeviationEvent is one bound breach, as recorded into the flight recorder.
type DeviationEvent struct {
	Metric    string  `json:"metric"`
	Users     int     `json:"users"`
	Measured  float64 `json:"measured"`
	Predicted float64 `json:"predicted"`
	Ratio     float64 `json:"ratio"`
	Bound     float64 `json:"bound"`
	TraceID   string  `json:"traceId,omitempty"`
}

// NewDeviationTracker wires a tracker to a flight recorder; rec may be nil
// (gauges still work, breaches just are not trace-recorded).
func NewDeviationTracker(rec *obs.Recorder) *DeviationTracker {
	return &DeviationTracker{
		rec:      rec,
		latest:   make(map[string]float64),
		sum:      make(map[string]float64),
		n:        make(map[string]int),
		exceeded: make(map[string]int),
	}
}

// Instrument wires the tracker to the event journal and the anomaly profile
// store: every bound breach appends a TypeDeviationBreach event (linking the
// force-recorded deviation trace) and asks for a rate-limited pprof capture.
// Both may be nil. Call before serving traffic.
func (d *DeviationTracker) Instrument(jn *journal.Journal, prof *journal.ProfileStore) {
	d.jn, d.prof = jn, prof
}

// Observe records one prediction-vs-measurement pair for the named metric
// ("throughput" or "cycle_time") at the given user count, against the given
// bound. It returns the deviation ratio and whether it breached the bound.
func (d *DeviationTracker) Observe(metric string, users int, measured, predicted, bound float64) (float64, bool) {
	if measured == 0 {
		return 0, false
	}
	ratio := (predicted - measured) / measured
	if ratio < 0 {
		ratio = -ratio
	}
	d.mu.Lock()
	d.latest[metric] = ratio
	d.sum[metric] += ratio
	d.n[metric]++
	over := ratio > bound
	var ev DeviationEvent
	if over {
		d.exceeded[metric]++
		ev = DeviationEvent{
			Metric: metric, Users: users,
			Measured: measured, Predicted: predicted,
			Ratio: ratio, Bound: bound,
		}
	}
	d.mu.Unlock()
	if over {
		ev.TraceID = d.recordViolation(ev)
		d.mu.Lock()
		d.violations = append(d.violations, ev)
		d.mu.Unlock()
		// The breach is the journal's flagship anomaly: append the event
		// (linking the deviation trace) and grab a rate-limited profile of
		// the node at the moment its model went stale.
		profileID, _ := d.prof.Capture(journal.TypeDeviationBreach, ev.TraceID)
		d.jn.Append(journal.TypeDeviationBreach,
			fmt.Sprintf("%s deviation %.1f%% breached %.0f%% bound at N=%d",
				ev.Metric, 100*ev.Ratio, 100*ev.Bound, ev.Users),
			journal.Event{
				TraceID:   ev.TraceID,
				ProfileID: profileID,
				Attrs: []journal.Attr{
					{Key: "metric", Value: ev.Metric},
					{Key: "users", Value: fmt.Sprintf("%d", ev.Users)},
					{Key: "measured", Value: fmt.Sprintf("%.6g", ev.Measured)},
					{Key: "predicted", Value: fmt.Sprintf("%.6g", ev.Predicted)},
					{Key: "ratio", Value: fmt.Sprintf("%.4f", ev.Ratio)},
					{Key: "bound", Value: fmt.Sprintf("%.2f", ev.Bound)},
				},
			})
	}
	return ratio, over
}

// ObserveThroughput and ObserveCycleTime apply the paper's bounds.
func (d *DeviationTracker) ObserveThroughput(users int, measured, predicted float64) (float64, bool) {
	return d.Observe("throughput", users, measured, predicted, ThroughputDeviationBound)
}

func (d *DeviationTracker) ObserveCycleTime(users int, measured, predicted float64) (float64, bool) {
	return d.Observe("cycle_time", users, measured, predicted, CycleTimeDeviationBound)
}

// recordViolation force-records the breach as a one-span trace so it shows up
// in /debug/traces (and cluster-wide trace queries) like any slow request.
func (d *DeviationTracker) recordViolation(ev DeviationEvent) string {
	if d.rec == nil {
		return ""
	}
	tr := telemetry.New(telemetry.NewID(), nil)
	span := tr.StartRoot("prediction-deviation")
	span.SetAttr("metric", ev.Metric)
	span.SetAttr("users", ev.Users)
	span.SetAttr("measured", fmt.Sprintf("%.6g", ev.Measured))
	span.SetAttr("predicted", fmt.Sprintf("%.6g", ev.Predicted))
	span.SetAttr("deviation_ratio", fmt.Sprintf("%.4f", ev.Ratio))
	span.SetAttr("bound", fmt.Sprintf("%.2f", ev.Bound))
	span.End()
	d.rec.ForceRecord(tr, "prediction-deviation", 0, time.Duration(0))
	return tr.ID()
}

// Violations returns the bound breaches observed so far.
func (d *DeviationTracker) Violations() []DeviationEvent {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]DeviationEvent(nil), d.violations...)
}

// WriteMetrics renders the deviation gauges in Prometheus text format:
// the latest and mean |predicted−measured|/measured per metric, and a
// counter of bound breaches.
func (d *DeviationTracker) WriteMetrics(w io.Writer) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	metrics := []string{"throughput", "cycle_time"}
	p := promtext.NewWriter(w)
	p.Gauge("solverd_prediction_deviation_ratio", "Latest |predicted-measured|/measured per validation metric.")
	for _, m := range metrics {
		p.Float(d.latest[m], "metric", m)
	}
	p.Gauge("solverd_prediction_deviation_ratio_mean", "Mean deviation ratio over all observations per metric.")
	for _, m := range metrics {
		mean := 0.0
		if d.n[m] > 0 {
			mean = d.sum[m] / float64(d.n[m])
		}
		p.Float(mean, "metric", m)
	}
	p.Counter("solverd_prediction_deviation_exceeded_total", "Observations that breached the paper's deviation bounds.")
	for _, m := range metrics {
		p.Int(d.exceeded[m], "metric", m)
	}
	// The alertable breach counter: one series per validation bound, both
	// always exposed so alert rules never see a vanishing series.
	p.Counter("solverd_monitor_deviation_breaches_total", "Deviation-bound breaches by the bound breached (throughput: 3%, cycle_time: 9%).")
	for _, m := range metrics {
		p.Int(d.exceeded[m], "bound", m)
	}
	return p.Err()
}
