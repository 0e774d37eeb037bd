// Package selfmodel turns a solverd node's own operation into the paper's
// measure → estimate → solve → validate loop. The node is itself a closed
// queueing system: requests arrive, wait for a bounded worker pool, hold a
// worker for a service burst and spend the rest of their wall time in
// decode/encode/network overhead. The monitor samples exactly that — a
// time-weighted in-flight integral, a queued-or-busy integral at the worker
// station and a busy-worker integral — closes a window every Interval, and
// feeds the Service Demand Law ratios through internal/estimate into a
// two-station model of the node (a multi-server CPU station for the worker
// pool plus a delay station for the off-worker overhead). MVASD solved over
// the fitted curves yields the node's own predicted throughput/latency-vs-
// concurrency trajectory, its saturation knee, and a live headroom figure:
// the predicted max concurrency the node can hold (knee, optionally tightened
// by a p99 bound) minus what is in flight right now.
//
// Every window with completions is also scored against the prediction through
// estimate.DeviationTracker under the paper's validation bounds (3%
// throughput, 9% latency); a breach force-records a deviation trace and
// triggers a re-fit, so the self-model heals the same way the
// request-facing estimator does.
// The monitor itself never decides: the shed signal it exposes (a gauge and
// a report field) is consumed by internal/admission, whose gate turns it into
// an admission decision only in enforce mode.
package selfmodel

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/journal"
	"repro/internal/promtext"
	"repro/internal/queueing"
)

// Station names of the node's self-model, in model order.
const (
	WorkersStation  = "workers"
	OverheadStation = "overhead"
)

// refitWindows is the steady-state re-fit cadence: every this many non-empty
// windows the demand curves are re-fitted even without a deviation breach,
// so slow drift inside the bounds is adopted rather than frozen out.
const refitWindows = 16

// Deviation metric names the monitor scores through the deviation tracker.
// Distinct from the estimate controller's "throughput"/"cycle_time" so the
// self-model's ratios never overwrite the request-facing gauges.
var DeviationMetrics = []string{"self_throughput", "self_p50", "self_p99"}

// Config tunes the monitor. Workers is required; everything else defaults.
type Config struct {
	// Workers is the node's worker-pool capacity — the server count of the
	// self-model's CPU station.
	Workers int
	// Interval is the sampling-window length Run advances on (default 2s).
	Interval time.Duration
	// MaxN is the concurrency ceiling the predicted curve is solved to
	// (default max(256, 64·Workers)).
	MaxN int
	// SaturationUtil is the per-server worker utilization treated as the
	// saturation knee (default 0.95).
	SaturationUtil float64
	// P99Bound, when positive, additionally caps the safe concurrency at the
	// largest n whose predicted p99 stays under it.
	P99Bound time.Duration
	// LatencyWindow caps the per-window latency reservoir the p50/p99 come
	// from (default 2048).
	LatencyWindow int
	// Estimate tunes the underlying demand estimator. Self-sampling yields
	// one sample per station per window, so the zero value lowers the
	// estimator's defaults to MinSamples 4 and MinFitPoints 3.
	Estimate estimate.Config
	// Tracker scores predicted-vs-observed windows (nil: a standalone one).
	Tracker *estimate.DeviationTracker
	// Journal, when non-nil, receives a TypeSelfReady event on warmup→ready
	// and a TypeKneeShift event when the predicted saturation knee moves by
	// KneeShiftThreshold or more between published reports.
	Journal *journal.Journal
	// Now is the monitor's clock (default time.Now; tests inject one).
	Now func() time.Time
}

// KneeShiftThreshold is the relative KneeN change between two published
// reports that is journaled as a knee shift (10%).
const KneeShiftThreshold = 0.10

func (c *Config) defaults() {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.MaxN <= 0 {
		c.MaxN = 64 * c.Workers
		if c.MaxN < 256 {
			c.MaxN = 256
		}
	}
	if c.SaturationUtil <= 0 || c.SaturationUtil > 1 {
		c.SaturationUtil = 0.95
	}
	if c.LatencyWindow <= 0 {
		c.LatencyWindow = 2048
	}
	if c.Estimate.MinSamples <= 0 {
		c.Estimate.MinSamples = 4
	}
	if c.Estimate.MinFitPoints < 2 {
		c.Estimate.MinFitPoints = 3
	}
	if c.Tracker == nil {
		c.Tracker = estimate.NewDeviationTracker(nil)
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// SelfModel returns the two-station closed model of one node: the worker
// pool as a C-server CPU station and the off-worker request overhead as a
// delay station. Think time is zero — the node does not model its clients.
// The model carries no demands: the estimator and every MVASD solve of it
// take them from measurements, so it passes ValidateShape, not Validate.
func SelfModel(workers int) *queueing.Model {
	return &queueing.Model{
		Name: "self",
		Stations: []queueing.Station{
			{Name: WorkersStation, Kind: queueing.CPU, Servers: workers, Visits: 1},
			{Name: OverheadStation, Kind: queueing.Delay, Servers: 1, Visits: 1},
		},
	}
}

// Window is one closed sampling window's aggregates — what Advance derives
// from the event integrals, and what deterministic tests feed directly.
type Window struct {
	// Elapsed is the window length.
	Elapsed time.Duration
	// Completions counts requests finished in the window (fractional rates
	// are fine: it only ever divides by Elapsed).
	Completions float64
	// BusySeconds is the worker-busy integral: Σ busyWorkers·dt.
	BusySeconds float64
	// StationSeconds is the queued-or-busy integral at the worker station.
	StationSeconds float64
	// InFlightSeconds is the wall in-flight integral: Σ inFlight·dt.
	InFlightSeconds float64
	// Latencies are the sampled request wall times of the window.
	Latencies []time.Duration
}

// CurvePoint is one population of the predicted self-trajectory.
type CurvePoint struct {
	N     int
	X     float64 // predicted throughput (req/s)
	Cycle float64 // predicted request wall time (s)
	Util  float64 // predicted per-server worker utilization
}

// Deviation is one scored predicted-vs-observed metric.
type Deviation struct {
	Metric   string
	Ratio    float64
	Bound    float64
	Breached bool
	Breaches uint64
}

// Report is the published self-model view: immutable once published.
type Report struct {
	// Ready is true once a demand snapshot exists and the curve is solved.
	Ready           bool
	SnapshotVersion uint64
	Workers         int
	MaxN            int

	// Windows/EmptyWindows/Completions are lifetime totals.
	Windows      uint64
	EmptyWindows uint64
	Completions  uint64

	// InFlight is the in-flight count when the report was published.
	InFlight int

	// Latest non-empty window's observations (latencies in seconds).
	ObservedConcurrency float64
	ObservedX           float64
	ObservedMean        float64
	ObservedP50         float64
	ObservedP99         float64

	// Predictions at the observed concurrency (zero until Ready).
	PredictedX   float64
	PredictedP50 float64
	PredictedP99 float64

	// Deviations carries the latest scored ratios per DeviationMetrics entry.
	Deviations []Deviation

	// Curve is the predicted trajectory, downsampled to ~64 stride-sampled
	// points plus the knee and the final population.
	Curve []CurvePoint

	// Saturated reports the knee was reached inside MaxN; KneeN is the first
	// population at SaturationUtil. P99LimitN is the largest population whose
	// predicted p99 honors P99Bound (0 when no bound). MaxSafeN combines
	// both; Headroom is MaxSafeN minus InFlight (negative past saturation).
	Saturated bool
	KneeN     int
	P99LimitN int
	MaxSafeN  int
	Headroom  int
	// ShedAdvised is the advisory signal: the node predicts it is at or past
	// its safe concurrency. Observe-only — nothing acts on it here.
	ShedAdvised bool

	// P99Shape is the smoothed p99/p50 ratio the p99 prediction scales by.
	P99Shape float64
	// Refits counts breach-triggered re-fits; LastFitError the most recent
	// fit failure ("" once a fit succeeds).
	Refits       uint64
	LastFitError string
}

// curve is one solved prediction trajectory, cached per snapshot version.
type curve struct {
	version   uint64
	x         []float64 // x[n-1] = X(n)
	cycle     []float64 // cycle[n-1] = R(n)
	util      []float64 // util[n-1] = per-server worker utilization at n
	saturated bool
	kneeN     int
}

// Monitor samples one node's own operation and models it. All methods are
// safe for concurrent use and valid on a nil receiver (no-ops), so callers
// can leave sampling hooks unconditional.
type Monitor struct {
	cfg     Config
	est     *estimate.Estimator
	tracker *estimate.DeviationTracker

	mu sync.Mutex
	// Event-side state: population counters and their time integrals.
	inFlight, station, busy    int
	inFlightInt, stationInt    time.Duration
	busyInt                    time.Duration
	last                       time.Time // integrator clock position
	windowStart                time.Time
	completions                uint64
	sumLatency                 time.Duration
	lat                        []time.Duration // window reservoir (ring)
	latN                       int             // writes this window
	latHist                    *promtext.Histogram
	totalWindows, emptyWindows uint64
	totalCompletions           uint64
	sinceFit                   int // non-empty windows since the last fit attempt
	refits                     uint64
	lastFitErr                 string
	shape                      float64 // EWMA of p99/p50
	shapeSet                   bool
	curve                      *curve
	breaches                   map[string]uint64
	deviations                 []Deviation

	rep atomic.Pointer[Report]
}

// New builds a monitor. The estimator model is fixed: SelfModel(cfg.Workers).
func New(cfg Config) *Monitor {
	cfg.defaults()
	est, err := estimate.New(SelfModel(cfg.Workers), cfg.Estimate)
	if err != nil {
		// SelfModel always validates; an error here is a programming bug.
		panic(err)
	}
	hist, _ := promtext.NewHistogram(promtext.LatencyBounds()...)
	now := cfg.Now()
	return &Monitor{
		cfg:         cfg,
		est:         est,
		tracker:     cfg.Tracker,
		last:        now,
		windowStart: now,
		lat:         make([]time.Duration, cfg.LatencyWindow),
		latHist:     hist,
		breaches:    make(map[string]uint64),
	}
}

// Config returns the monitor's resolved configuration.
func (m *Monitor) Config() Config { return m.cfg }

// Estimator exposes the underlying demand estimator (for health reporting).
func (m *Monitor) Estimator() *estimate.Estimator {
	if m == nil {
		return nil
	}
	return m.est
}

// advanceLocked accrues the population integrals up to now (mu held). A
// clock that appears to run backwards (mixed manual/ticker advances in
// tests) accrues nothing rather than going negative.
func (m *Monitor) advanceLocked(now time.Time) {
	if dt := now.Sub(m.last); dt > 0 {
		m.inFlightInt += time.Duration(m.inFlight) * dt
		m.stationInt += time.Duration(m.station) * dt
		m.busyInt += time.Duration(m.busy) * dt
		m.last = now
	}
}

// RequestBegin marks one sampled request entering the node.
func (m *Monitor) RequestBegin() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.advanceLocked(m.cfg.Now())
	m.inFlight++
	m.mu.Unlock()
}

// RequestEnd marks one sampled request leaving, with its wall time. The
// reservoir write and histogram update are allocation-free: the step-path
// guarantee of the solver must survive sampling being enabled.
func (m *Monitor) RequestEnd(d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.advanceLocked(m.cfg.Now())
	if m.inFlight > 0 {
		m.inFlight--
	}
	m.completions++
	m.totalCompletions++
	m.sumLatency += d
	m.lat[m.latN%len(m.lat)] = d
	m.latN++
	m.latHist.Observe(d.Seconds())
	m.mu.Unlock()
}

// RequestDrop undoes RequestBegin for a request refused by the admission
// gate (shed or redirected): the in-flight integral stops accruing it, but no
// completion or latency is recorded — a refusal answered in microseconds
// would otherwise dilute the sampled service-demand windows toward zero.
func (m *Monitor) RequestDrop() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.advanceLocked(m.cfg.Now())
	if m.inFlight > 0 {
		m.inFlight--
	}
	m.mu.Unlock()
}

// WaitBegin marks a request starting to wait for a worker slot.
func (m *Monitor) WaitBegin() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.advanceLocked(m.cfg.Now())
	m.station++
	m.mu.Unlock()
}

// WaitAbort undoes WaitBegin for a request whose wait was cancelled.
func (m *Monitor) WaitAbort() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.advanceLocked(m.cfg.Now())
	if m.station > 0 {
		m.station--
	}
	m.mu.Unlock()
}

// WorkerBegin marks a waiting request being granted a worker.
func (m *Monitor) WorkerBegin() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.advanceLocked(m.cfg.Now())
	m.busy++
	m.mu.Unlock()
}

// WorkerEnd marks a worker being released (ends the busy and station stays).
func (m *Monitor) WorkerEnd() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.advanceLocked(m.cfg.Now())
	if m.busy > 0 {
		m.busy--
	}
	if m.station > 0 {
		m.station--
	}
	m.mu.Unlock()
}

// InFlight returns the current sampled in-flight count.
func (m *Monitor) InFlight() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inFlight
}

// Report returns the latest published report (nil before the first window).
func (m *Monitor) Report() *Report {
	if m == nil {
		return nil
	}
	return m.rep.Load()
}

// Run advances the monitor every Interval until ctx ends.
func (m *Monitor) Run(ctx context.Context) {
	if m == nil {
		return
	}
	t := time.NewTicker(m.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			m.Advance(now)
		}
	}
}

// Advance closes the current sampling window at now and runs the model loop
// on it: ingest → (re)fit → predict → score → publish. It returns the
// published report.
func (m *Monitor) Advance(now time.Time) *Report {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	m.advanceLocked(now)
	elapsed := now.Sub(m.windowStart)
	if elapsed <= 0 {
		rep := m.rep.Load()
		m.mu.Unlock()
		return rep
	}
	w := Window{
		Elapsed:         elapsed,
		Completions:     float64(m.completions),
		BusySeconds:     m.busyInt.Seconds(),
		StationSeconds:  m.stationInt.Seconds(),
		InFlightSeconds: m.inFlightInt.Seconds(),
	}
	nLat := m.latN
	if nLat > len(m.lat) {
		nLat = len(m.lat)
	}
	w.Latencies = append([]time.Duration(nil), m.lat[:nLat]...)
	m.completions = 0
	m.sumLatency = 0
	m.latN = 0
	m.inFlightInt, m.stationInt, m.busyInt = 0, 0, 0
	m.windowStart = now
	rep := m.observeWindowLocked(w)
	m.mu.Unlock()
	return rep
}

// ObserveWindow ingests one externally-aggregated window — the deterministic
// seam: validation tests feed windows derived from a known ground truth and
// get the exact pipeline a live node runs.
func (m *Monitor) ObserveWindow(w Window) *Report {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.totalCompletions += uint64(w.Completions + 0.5)
	for _, d := range w.Latencies {
		m.latHist.Observe(d.Seconds())
	}
	return m.observeWindowLocked(w)
}

// observeWindowLocked is the model loop over one closed window (mu held).
func (m *Monitor) observeWindowLocked(w Window) *Report {
	m.totalWindows++
	sec := w.Elapsed.Seconds()
	if w.Completions <= 0 || sec <= 0 {
		m.emptyWindows++
		return m.publishLocked(nil, 0, 0, 0, 0, 0)
	}

	x := w.Completions / sec
	busyU := w.BusySeconds / sec
	stationAvg := w.StationSeconds / sec
	inflightAvg := w.InFlightSeconds / sec
	n := int(math.Round(inflightAvg))
	if n < 1 {
		n = 1
	}
	delayU := inflightAvg - stationAvg
	if delayU < 0 {
		delayU = 0
	}
	m.est.Observe(estimate.Sample{
		Station: 0, Concurrency: n, Utilization: busyU, Throughput: x,
	})
	m.est.Observe(estimate.Sample{
		Station: 1, Concurrency: n, Utilization: delayU, Throughput: x,
	})

	mean, p50, p99 := latencyStats(w.Latencies)
	if mean == 0 && w.Completions > 0 {
		// No sampled latencies (reservoir empty): fall back to Little's Law.
		mean = inflightAvg / x
		p50, p99 = mean, mean
	}

	// Fit eagerly until the first snapshot exists, then refresh on a slow
	// cadence so gradual demand drift inside the deviation bounds is still
	// adopted (breaches additionally force a fit in scoreLocked).
	m.sinceFit++
	if m.est.Version() == 0 || m.sinceFit >= refitWindows {
		m.sinceFit = 0
		if _, err := m.est.Fit(); err != nil {
			m.lastFitErr = err.Error()
		} else {
			m.lastFitErr = ""
		}
	}
	m.refreshCurveLocked()
	m.scoreLocked(n, x, p50, p99)
	return m.publishLocked(&w, inflightAvg, x, mean, p50, p99)
}

// refreshCurveLocked (re)solves the prediction trajectory when the snapshot
// version moved (mu held).
func (m *Monitor) refreshCurveLocked() {
	snap := m.est.Snapshot()
	if snap == nil {
		return
	}
	if m.curve != nil && m.curve.version == snap.Version {
		return
	}
	c, err := solveCurve(snap, m.cfg.MaxN, m.cfg.SaturationUtil)
	if err != nil {
		m.lastFitErr = err.Error()
		return
	}
	m.curve = c
}

// solveCurve runs MVASD over a snapshot's fitted curves up to maxN and
// extracts the node trajectory with its saturation knee.
func solveCurve(snap *estimate.Snapshot, maxN int, satUtil float64) (*curve, error) {
	dm, err := snap.DemandModel()
	if err != nil {
		return nil, err
	}
	sol, err := core.NewMVASDSolver(snap.Model, dm, core.MVASDOptions{})
	if err != nil {
		return nil, err
	}
	defer sol.Release()
	sol.Reserve(maxN)
	if err := sol.Run(maxN); err != nil {
		return nil, err
	}
	res := sol.Result()
	c := &curve{
		version: snap.Version,
		x:       append([]float64(nil), res.X[:maxN]...),
		cycle:   append([]float64(nil), res.Cycle[:maxN]...),
		util:    make([]float64, maxN),
	}
	for i := 0; i < maxN; i++ {
		c.util[i] = res.Util[i][0]
		if !c.saturated && c.util[i] >= satUtil {
			c.saturated, c.kneeN = true, i+1
		}
	}
	return c, nil
}

// scoreLocked scores one window's observations against the current curve
// through the deviation tracker; breaches trigger a re-fit (mu held).
func (m *Monitor) scoreLocked(n int, x, p50, p99 float64) {
	c := m.curve
	if c == nil {
		return
	}
	idx := n - 1
	if idx >= len(c.x) {
		idx = len(c.x) - 1
	}
	predX, predCycle := c.x[idx], c.cycle[idx]
	devs := make([]Deviation, 0, len(DeviationMetrics))
	breached := false
	record := func(metric string, measured, predicted, bound float64) {
		ratio, over := m.tracker.Observe(metric, n, measured, predicted, bound)
		if over {
			m.breaches[metric]++
			breached = true
		}
		devs = append(devs, Deviation{
			Metric: metric, Ratio: ratio, Bound: bound,
			Breached: over, Breaches: m.breaches[metric],
		})
	}
	record("self_throughput", x, predX, estimate.ThroughputDeviationBound)
	if p50 > 0 {
		record("self_p50", p50, predCycle, estimate.CycleTimeDeviationBound)
	}
	if m.shapeSet && p99 > 0 {
		record("self_p99", p99, m.shape*predCycle, estimate.CycleTimeDeviationBound)
	}
	// Update the p99/p50 shape after scoring, so the prediction never learns
	// from the very window it is judged against.
	if p50 > 0 && p99 > 0 {
		r := p99 / p50
		if !m.shapeSet {
			m.shape, m.shapeSet = r, true
		} else {
			m.shape += 0.2 * (r - m.shape)
		}
	}
	m.deviations = devs
	if breached {
		m.refits++
		if _, err := m.est.Fit(); err != nil {
			m.lastFitErr = err.Error()
		} else {
			m.lastFitErr = ""
			m.refreshCurveLocked()
		}
	}
}

// publishLocked assembles and publishes the report (mu held). w is nil for
// an empty window: the previous observations are carried forward.
func (m *Monitor) publishLocked(w *Window, inflightAvg, x, mean, p50, p99 float64) *Report {
	prev := m.rep.Load()
	rep := &Report{
		Workers:      m.cfg.Workers,
		MaxN:         m.cfg.MaxN,
		Windows:      m.totalWindows,
		EmptyWindows: m.emptyWindows,
		Completions:  m.totalCompletions,
		InFlight:     m.inFlight,
		P99Shape:     m.shape,
		Refits:       m.refits,
		LastFitError: m.lastFitErr,
	}
	if w != nil {
		rep.ObservedConcurrency = inflightAvg
		rep.ObservedX = x
		rep.ObservedMean = mean
		rep.ObservedP50 = p50
		rep.ObservedP99 = p99
	} else if prev != nil {
		rep.ObservedConcurrency = prev.ObservedConcurrency
		rep.ObservedX = prev.ObservedX
		rep.ObservedMean = prev.ObservedMean
		rep.ObservedP50 = prev.ObservedP50
		rep.ObservedP99 = prev.ObservedP99
	}
	rep.Deviations = append([]Deviation(nil), m.deviations...)
	if c := m.curve; c != nil {
		rep.Ready = true
		rep.SnapshotVersion = c.version
		rep.Saturated, rep.KneeN = c.saturated, c.kneeN
		rep.MaxSafeN = m.cfg.MaxN
		if c.saturated {
			rep.MaxSafeN = c.kneeN
		}
		if m.cfg.P99Bound > 0 && m.shapeSet {
			bound := m.cfg.P99Bound.Seconds()
			limit := 0
			for i, cyc := range c.cycle {
				if m.shape*cyc <= bound {
					limit = i + 1
				}
			}
			rep.P99LimitN = limit
			if limit < rep.MaxSafeN {
				rep.MaxSafeN = limit
			}
		}
		rep.Headroom = rep.MaxSafeN - m.inFlight
		rep.ShedAdvised = rep.Headroom <= 0
		n := int(math.Round(rep.ObservedConcurrency))
		if n < 1 {
			n = 1
		}
		if n > len(c.x) {
			n = len(c.x)
		}
		rep.PredictedX = c.x[n-1]
		rep.PredictedP50 = c.cycle[n-1]
		if m.shapeSet {
			rep.PredictedP99 = m.shape * c.cycle[n-1]
		}
		rep.Curve = downsample(c)
	}
	m.journalTransitionsLocked(prev, rep)
	m.rep.Store(rep)
	return rep
}

// journalTransitionsLocked appends the report-to-report state transitions
// the journal tracks: warmup→ready, and a saturation knee moving by
// KneeShiftThreshold or more (mu held; journal appends take a leaf lock).
func (m *Monitor) journalTransitionsLocked(prev, rep *Report) {
	jn := m.cfg.Journal
	if !jn.Enabled() {
		return
	}
	if rep.Ready && (prev == nil || !prev.Ready) {
		jn.Append(journal.TypeSelfReady,
			fmt.Sprintf("self-model ready: max safe concurrency %d", rep.MaxSafeN),
			journal.Event{Attrs: []journal.Attr{
				{Key: "snapshot_version", Value: fmt.Sprintf("%d", rep.SnapshotVersion)},
				{Key: "max_safe_n", Value: fmt.Sprintf("%d", rep.MaxSafeN)},
				{Key: "knee_n", Value: fmt.Sprintf("%d", rep.KneeN)},
			}})
		return
	}
	if prev == nil || !prev.Ready || !rep.Ready || !prev.Saturated || !rep.Saturated {
		return
	}
	if prev.KneeN <= 0 || rep.KneeN == prev.KneeN {
		return
	}
	shift := math.Abs(float64(rep.KneeN-prev.KneeN)) / float64(prev.KneeN)
	if shift < KneeShiftThreshold {
		return
	}
	jn.Append(journal.TypeKneeShift,
		fmt.Sprintf("saturation knee moved %d -> %d (%.0f%%)", prev.KneeN, rep.KneeN, 100*shift),
		journal.Event{Attrs: []journal.Attr{
			{Key: "old_knee_n", Value: fmt.Sprintf("%d", prev.KneeN)},
			{Key: "new_knee_n", Value: fmt.Sprintf("%d", rep.KneeN)},
			{Key: "snapshot_version", Value: fmt.Sprintf("%d", rep.SnapshotVersion)},
		}})
}

// downsample thins a full trajectory to ~64 stride-sampled points, always keeping
// population 1, the knee and MaxN.
func downsample(c *curve) []CurvePoint {
	maxN := len(c.x)
	stride := (maxN + 63) / 64
	if stride < 1 {
		stride = 1
	}
	var out []CurvePoint
	add := func(n int) {
		if len(out) > 0 && out[len(out)-1].N >= n {
			return
		}
		out = append(out, CurvePoint{
			N: n, X: c.x[n-1], Cycle: c.cycle[n-1], Util: c.util[n-1],
		})
	}
	for n := 1; n <= maxN; n += stride {
		if c.saturated && c.kneeN > 0 && n > c.kneeN && (len(out) == 0 || out[len(out)-1].N < c.kneeN) {
			add(c.kneeN)
		}
		add(n)
	}
	if c.saturated && c.kneeN > 0 {
		add(c.kneeN)
	}
	add(maxN)
	return out
}

// latencyStats returns the mean, p50 and p99 of ds in seconds (zeros when
// empty). ds is not modified.
func latencyStats(ds []time.Duration) (mean, p50, p99 float64) {
	if len(ds) == 0 {
		return 0, 0, 0
	}
	buf := append([]time.Duration(nil), ds...)
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	var sum time.Duration
	for _, d := range buf {
		sum += d
	}
	mean = sum.Seconds() / float64(len(buf))
	return mean, quantile(buf, 0.50), quantile(buf, 0.99)
}

// quantile returns the q-quantile of a sorted duration slice in seconds.
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i].Seconds()
}
