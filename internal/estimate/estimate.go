// Package estimate turns live telemetry into the demand curves MVASD solves.
//
// The paper measures concurrency-dependent service demands D_k(n) offline,
// from a dedicated load-test campaign at Chebyshev-placed concurrencies. A
// production service cannot stop for a campaign: it streams (utilization,
// throughput, concurrency) samples continuously. This package closes that
// gap with an online estimator:
//
//   - Observe ingests timestamped samples per station and applies the
//     Service Demand Law D = U/X (eq. 3) to each one;
//   - per (station, concurrency) cell, demands are smoothed with an EWMA and
//     guarded by a windowed median/MAD outlier filter (a regime-shift breaker
//     resets a cell that rejects too many samples in a row, so genuine demand
//     drift is adopted rather than filtered away);
//   - Fit resamples the smoothed cell means onto integer Chebyshev nodes
//     (internal/chebyshev, the paper's Section-8 placement) and fits the
//     final per-station demand curve over those nodes;
//   - every successful fit publishes an immutable, versioned Snapshot that
//     concurrent readers (the /v1/whatif planner, the deviation controller)
//     consume without locking the ingest path.
//
// Memory is bounded regardless of how many distinct concurrencies a stream
// visits: each station keeps at most MaxCells cells and evicts the least
// recently updated one past the cap.
package estimate

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/interp"
	"repro/internal/queueing"
)

// ErrEstimate wraps invalid estimator input and not-yet-fittable states.
var ErrEstimate = errors.New("estimate: invalid input")

// ErrNotReady is returned by Fit while too little of the concurrency range
// has accumulated enough accepted samples.
var ErrNotReady = errors.New("estimate: not enough fit-ready samples")

// Config tunes the estimator. The zero value is usable: every field
// defaults.
type Config struct {
	// Window is the per-cell sample retention used by the median/MAD
	// outlier filter (default 32).
	Window int
	// MinSamples is the accepted-sample count a cell needs before it
	// contributes a point to the fit (default 8).
	MinSamples int
	// Alpha is the EWMA smoothing factor in (0, 1] (default 0.2).
	Alpha float64
	// OutlierK rejects a sample whose demand is more than K scaled MADs
	// from the cell median (default 6; negative disables the filter).
	OutlierK float64
	// RejectStreak resets a cell that rejects this many samples in a row:
	// a persistent "outlier" is a regime shift, not noise (default 12).
	RejectStreak int
	// MaxCells caps the distinct concurrency cells retained per station
	// (default 512); past it the least recently updated cell is evicted.
	MaxCells int
	// FitNodes is the Chebyshev node count the demand curves are resampled
	// onto (default 7, the paper's Section-8 choice).
	FitNodes int
	// MinFitPoints is the number of fit-ready cells (distinct
	// concurrencies) a station needs before Fit succeeds (default 4).
	MinFitPoints int
	// Interp is the interpolation method of the published curves (default
	// PCHIP: monotone between nodes, robust to residual noise).
	Interp interp.Method
}

func (c *Config) defaults() {
	if c.Window <= 0 {
		c.Window = 32
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.2
	}
	if c.OutlierK == 0 {
		c.OutlierK = 6
	}
	if c.RejectStreak <= 0 {
		c.RejectStreak = 12
	}
	if c.MaxCells <= 0 {
		c.MaxCells = 512
	}
	if c.FitNodes <= 0 {
		c.FitNodes = 7
	}
	if c.MinFitPoints < 2 {
		c.MinFitPoints = 4
	}
	if c.Interp == "" {
		c.Interp = interp.PCHIP
	}
}

// Sample is one station observation: the busy fraction U (0–C_k scale for
// multi-server stations, exactly what vmstat-style accounting produces), the
// system throughput X it was measured against, and the offered concurrency.
// TimeUnixMS is informational (health reporting); ordering is not required.
type Sample struct {
	// Station indexes the estimator's model stations.
	Station int
	// Concurrency is the offered load (virtual users) during the sample.
	Concurrency int
	// Utilization is the station's total busy fraction over the sample
	// window (sum over servers: 0–C_k).
	Utilization float64
	// Throughput is the measured system throughput (transactions/second).
	Throughput float64
	// TimeUnixMS optionally stamps the sample (milliseconds since epoch).
	TimeUnixMS int64
}

// cell accumulates one (station, concurrency) stream of demand estimates.
type cell struct {
	n       int
	window  []float64 // accepted demands, ring-buffered to cfg.Window
	next    int       // ring write position
	count   uint64    // accepted samples over the cell's lifetime
	ewma    float64
	rejects int    // consecutive rejections (regime-shift breaker)
	seq     uint64 // last-update sequence for LRU eviction
}

// stationState is one station's ingest-side state.
type stationState struct {
	name     string
	cells    map[int]*cell
	accepted uint64
	rejected uint64
	resets   uint64 // regime-shift cell resets
}

// Estimator is the streaming service-demand estimator. Observe/Fit/Snapshot
// are safe for concurrent use; the ingest path never blocks on readers of
// published snapshots.
type Estimator struct {
	cfg   Config
	model *queueing.Model // private copy

	mu       sync.Mutex
	stations []*stationState
	seq      uint64 // global update sequence (cell LRU clock)
	lastErr  string // most recent Fit failure, for health reporting

	fits    atomic.Uint64
	version atomic.Uint64
	snap    atomic.Pointer[Snapshot]
}

// New builds an estimator for the given model's stations. The model is
// copied; its per-station service times are irrelevant (demands come from
// the stream), but its shape — station names, server counts, think time —
// is what snapshots carry into MVASD solves.
func New(model *queueing.Model, cfg Config) (*Estimator, error) {
	if model == nil {
		return nil, fmt.Errorf("%w: nil model", ErrEstimate)
	}
	if err := model.ValidateShape(); err != nil {
		return nil, err
	}
	cfg.defaults()
	m := *model
	m.Stations = append([]queueing.Station(nil), model.Stations...)
	e := &Estimator{cfg: cfg, model: &m}
	for _, st := range m.Stations {
		e.stations = append(e.stations, &stationState{
			name:  st.Name,
			cells: make(map[int]*cell),
		})
	}
	return e, nil
}

// Model returns a copy of the estimator's model.
func (e *Estimator) Model() *queueing.Model {
	m := *e.model
	m.Stations = append([]queueing.Station(nil), e.model.Stations...)
	return &m
}

// Config returns the estimator's resolved configuration.
func (e *Estimator) Config() Config { return e.cfg }

// StationIndex resolves a station name, -1 when unknown.
func (e *Estimator) StationIndex(name string) int {
	return e.model.StationIndex(name)
}

// Observe ingests one sample. It returns whether the sample was accepted
// (false: rejected by the outlier filter) and an error for structurally
// invalid samples, which update nothing.
func (e *Estimator) Observe(s Sample) (accepted bool, err error) {
	if s.Station < 0 || s.Station >= len(e.stations) {
		return false, fmt.Errorf("%w: station %d of %d", ErrEstimate, s.Station, len(e.stations))
	}
	if s.Concurrency < 1 {
		return false, fmt.Errorf("%w: concurrency %d", ErrEstimate, s.Concurrency)
	}
	if s.Throughput <= 0 || s.Utilization < 0 ||
		math.IsNaN(s.Throughput) || math.IsNaN(s.Utilization) ||
		math.IsInf(s.Throughput, 0) || math.IsInf(s.Utilization, 0) {
		return false, fmt.Errorf("%w: utilization %g over throughput %g", ErrEstimate, s.Utilization, s.Throughput)
	}
	d := queueing.DemandFromUtilization(s.Utilization, s.Throughput)

	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stations[s.Station]
	e.seq++
	c, ok := st.cells[s.Concurrency]
	if !ok {
		c = &cell{n: s.Concurrency, window: make([]float64, 0, e.cfg.Window)}
		st.cells[s.Concurrency] = c
	}
	// Stamp recency before any eviction: a just-added cell must never be its
	// own victim.
	c.seq = e.seq
	if !ok {
		e.evictCells(st)
	}

	if e.rejectOutlier(c, d) {
		c.rejects++
		if c.rejects >= e.cfg.RejectStreak {
			// Regime shift: the "outliers" are the new normal. Restart the
			// cell on the sample instead of filtering the shift forever. The
			// terminal sample counts as accepted, not rejected — every sample
			// lands in exactly one bucket.
			c.window = c.window[:0]
			c.next = 0
			c.count = 0
			c.rejects = 0
			st.resets++
		} else {
			st.rejected++
			return false, nil
		}
	}
	c.rejects = 0
	if len(c.window) < e.cfg.Window {
		c.window = append(c.window, d)
	} else {
		c.window[c.next] = d
	}
	c.next = (c.next + 1) % e.cfg.Window
	if c.count == 0 {
		c.ewma = d
	} else {
		c.ewma += e.cfg.Alpha * (d - c.ewma)
	}
	c.count++
	st.accepted++
	return true, nil
}

// rejectOutlier applies the windowed median/MAD gate (mu held). Cells still
// filling their first few samples accept everything: a median of two points
// is no baseline to reject against.
func (e *Estimator) rejectOutlier(c *cell, d float64) bool {
	if e.cfg.OutlierK < 0 || len(c.window) < 5 {
		return false
	}
	med, mad := medianMAD(c.window)
	// 1.4826·MAD estimates σ for Gaussian noise; the relative floor keeps a
	// zero-variance window (identical samples) from rejecting everything.
	scale := math.Max(1.4826*mad, 0.05*math.Abs(med))
	if scale == 0 {
		return false
	}
	return math.Abs(d-med) > e.cfg.OutlierK*scale
}

// evictCells drops least-recently-updated cells past the per-station cap
// (mu held). Called once per new cell, so it removes at most one.
func (e *Estimator) evictCells(st *stationState) {
	for len(st.cells) > e.cfg.MaxCells {
		var victim *cell
		for _, c := range st.cells {
			if victim == nil || c.seq < victim.seq {
				victim = c
			}
		}
		delete(st.cells, victim.n)
	}
}

// medianMAD returns the median and the median absolute deviation of xs.
func medianMAD(xs []float64) (med, mad float64) {
	buf := make([]float64, len(xs))
	copy(buf, xs)
	sort.Float64s(buf)
	med = quantileSorted(buf)
	for i, v := range buf {
		buf[i] = math.Abs(v - med)
	}
	sort.Float64s(buf)
	return med, quantileSorted(buf)
}

func quantileSorted(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// StationHealth is one station's ingest-side health, for /v1/demands and
// the metrics exposition.
type StationHealth struct {
	Name     string
	Accepted uint64
	Rejected uint64
	Resets   uint64
	Cells    int
	// FitReady counts cells with at least MinSamples accepted samples.
	FitReady int
}

// Health snapshots per-station ingest health plus the most recent fit error
// ("" when the last fit succeeded or none ran).
func (e *Estimator) Health() (stations []StationHealth, lastErr string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	stations = make([]StationHealth, len(e.stations))
	for i, st := range e.stations {
		h := StationHealth{
			Name:     st.name,
			Accepted: st.accepted,
			Rejected: st.rejected,
			Resets:   st.resets,
			Cells:    len(st.cells),
		}
		for _, c := range st.cells {
			if c.count >= uint64(e.cfg.MinSamples) {
				h.FitReady++
			}
		}
		stations[i] = h
	}
	return stations, e.lastErr
}

// Version returns the published snapshot version (0 before the first fit).
func (e *Estimator) Version() uint64 { return e.version.Load() }

// Fits returns the number of successful fits.
func (e *Estimator) Fits() uint64 { return e.fits.Load() }

// Snapshot returns the latest published snapshot, nil before the first fit.
// Snapshots are immutable; readers never contend with the ingest path.
func (e *Estimator) Snapshot() *Snapshot { return e.snap.Load() }
