package modelio

// This file holds the wire schemas for the online-estimation API
// (internal/estimate via internal/server):
//
//	POST /v1/observe  stream live (utilization, throughput, concurrency)
//	                  samples and system-level measurements into the estimator
//	GET  /v1/demands  the current fitted demand curves + estimator health
//	GET  /v1/whatif   capacity planning against the live estimate
//
// Like the solve schemas, these reuse the package's model/samples formats:
// DemandsResponse.Samples is a SamplesFile, so the live estimate pastes
// directly into a /v1/solve body (or an offline MVASD run) and reproduces the
// server's own predictions float for float.

import (
	"fmt"
	"math"

	"repro/internal/queueing"
)

// ObserveSample is one station observation: the Service Demand Law inputs
// (eq. 3, D = U/X) measured over one sampling window.
type ObserveSample struct {
	// Station names the model station the utilization belongs to.
	Station string `json:"station"`
	// Concurrency is the offered load (virtual users) during the window.
	Concurrency int `json:"concurrency"`
	// Utilization is the station's total busy fraction (0–C_k scale: a
	// multi-core CPU sums over cores, as vmstat-style accounting reports).
	Utilization float64 `json:"utilization"`
	// Throughput is the measured system throughput (tx/s) for the window.
	Throughput float64 `json:"throughput"`
	// TimeUnixMS optionally stamps the sample (milliseconds since epoch).
	TimeUnixMS int64 `json:"timeUnixMs,omitempty"`
}

// SystemSample is one measured system-level pair for the closed-loop
// deviation check: the estimator's MVASD prediction at the same concurrency
// is compared against it under the paper's 3%/9% bounds, and a breach
// triggers re-estimation.
type SystemSample struct {
	Concurrency int     `json:"concurrency"`
	Throughput  float64 `json:"throughput"`
	// CycleTime is the measured R+Z in seconds; 0 skips the cycle check.
	CycleTime float64 `json:"cycleTime,omitempty"`
}

// ObserveRequest is the POST /v1/observe body.
type ObserveRequest struct {
	// Model registers the estimator's network shape. Required on the first
	// observe; later requests may omit it. Sending a structurally different
	// model resets the estimator (and invalidates estimate-backed caches).
	Model *queueing.Model `json:"model,omitempty"`
	// Samples are station observations to ingest.
	Samples []ObserveSample `json:"samples,omitempty"`
	// System are system-level measurements to score against the current
	// snapshot's predictions (ignored until a first fit exists).
	System []SystemSample `json:"system,omitempty"`
	// Fit forces a fit after ingest (counted as a "manual" trigger) — useful
	// to bootstrap the first snapshot instead of waiting for a breach.
	Fit bool `json:"fit,omitempty"`
}

// Normalize validates the observe request's structure. Per-sample domain
// errors (unknown station, non-positive throughput) surface per sample at
// ingest instead, so one bad sample does not reject a batch.
func (r *ObserveRequest) Normalize() error {
	if r.Model != nil {
		if err := r.Model.ValidateShape(); err != nil {
			return err
		}
	}
	if len(r.Samples) == 0 && len(r.System) == 0 && !r.Fit {
		return fmt.Errorf("modelio: observe request has no samples, system measurements or fit request")
	}
	for i, sys := range r.System {
		if sys.Concurrency < 1 {
			return fmt.Errorf("modelio: system sample %d concurrency %d (want >= 1)", i, sys.Concurrency)
		}
		if sys.Throughput <= 0 || math.IsNaN(sys.Throughput) || math.IsInf(sys.Throughput, 0) {
			return fmt.Errorf("modelio: system sample %d throughput %g", i, sys.Throughput)
		}
		if sys.CycleTime < 0 || math.IsNaN(sys.CycleTime) {
			return fmt.Errorf("modelio: system sample %d cycle time %g", i, sys.CycleTime)
		}
	}
	return nil
}

// SystemCheck is the closed-loop verdict for one SystemSample.
type SystemCheck struct {
	Concurrency    int     `json:"concurrency"`
	PredictedX     float64 `json:"predictedX,omitempty"`
	PredictedCycle float64 `json:"predictedCycle,omitempty"`
	// ThroughputDeviation/CycleDeviation are |predicted−measured|/measured.
	ThroughputDeviation float64 `json:"throughputDeviation,omitempty"`
	CycleDeviation      float64 `json:"cycleDeviation,omitempty"`
	ThroughputBreach    bool    `json:"throughputBreach,omitempty"`
	CycleBreach         bool    `json:"cycleBreach,omitempty"`
	// Reestimated reports that this breach triggered a successful re-fit.
	Reestimated bool `json:"reestimated,omitempty"`
	// Error carries a per-check failure (no snapshot yet, failed re-fit).
	Error string `json:"error,omitempty"`
}

// SampleError is one rejected-at-validation ingest sample.
type SampleError struct {
	Index int    `json:"index"`
	Error string `json:"error"`
}

// ObserveResponse is the POST /v1/observe reply.
type ObserveResponse struct {
	// Accepted/Rejected count ingested samples: Rejected covers the outlier
	// filter; Errors lists samples that failed validation entirely.
	Accepted int           `json:"accepted"`
	Rejected int           `json:"rejected"`
	Errors   []SampleError `json:"errors,omitempty"`
	// Checks reports the closed-loop verdicts, one per system sample.
	Checks []SystemCheck `json:"checks,omitempty"`
	// SnapshotVersion is the published demand-curve version after this
	// request (0 before the first fit).
	SnapshotVersion uint64 `json:"snapshotVersion"`
	// FitError is set when a requested or triggered fit failed.
	FitError  string  `json:"fitError,omitempty"`
	ElapsedMS float64 `json:"elapsedMs"`
}

// DemandCurveOut is one station's fitted curve on the wire.
type DemandCurveOut struct {
	Name    string    `json:"name"`
	Nodes   []float64 `json:"nodes"`
	Demands []float64 `json:"demands"`
	// Points is how many distinct fit-ready concurrencies entered the fit.
	Points int `json:"points"`
	// Residual is the fit's RMS relative error against the smoothed means.
	Residual float64 `json:"residual"`
}

// StationHealthOut is one station's estimator ingest health on the wire.
type StationHealthOut struct {
	Name     string `json:"name"`
	Accepted uint64 `json:"accepted"`
	Rejected uint64 `json:"rejected"`
	Resets   uint64 `json:"resets"`
	Cells    int    `json:"cells"`
	FitReady int    `json:"fitReady"`
}

// DemandsResponse is the GET /v1/demands reply.
type DemandsResponse struct {
	// SnapshotVersion is 0 (with nil Model/Samples/Stations) before the
	// first successful fit; health is populated as soon as samples arrive.
	SnapshotVersion uint64 `json:"snapshotVersion"`
	FittedAtUnixMS  int64  `json:"fittedAtUnixMs,omitempty"`
	// Interp is the interpolation method of the published curves.
	Interp string `json:"interp,omitempty"`
	// Model and Samples are directly pasteable into a /v1/solve body
	// (algorithm mvasd, the same interp) to reproduce the live predictions.
	Model   *queueing.Model `json:"model,omitempty"`
	Samples *SamplesFile    `json:"samples,omitempty"`
	// Stations carries the fitted curves with their residuals.
	Stations []DemandCurveOut `json:"stations,omitempty"`
	// Health is the per-station ingest health; LastFitError the most recent
	// fit failure ("" when healthy).
	Health       []StationHealthOut `json:"health,omitempty"`
	LastFitError string             `json:"lastFitError,omitempty"`
	// Fits counts successful fits; Triggers the re-estimations by reason.
	Fits     uint64            `json:"fits"`
	Triggers map[string]uint64 `json:"triggers,omitempty"`
}

// WhatIfResponse is the GET /v1/whatif reply: the answer to "which N
// saturates this station (at the given per-server utilization target), and
// what does the system look like there", solved by MVASD over the live
// fitted demand curves — optionally with replica-count overrides applied
// ("what if I add two replicas to tier j").
type WhatIfResponse struct {
	// SnapshotVersion identifies the demand-curve generation answering this.
	SnapshotVersion uint64 `json:"snapshotVersion"`
	// Station is the queried tier; UtilizationTarget the per-server
	// saturation threshold.
	Station           string  `json:"station"`
	UtilizationTarget float64 `json:"utilizationTarget"`
	// Servers echoes any replica overrides applied to the model.
	Servers map[string]int `json:"servers,omitempty"`
	// MaxN is the search ceiling the solve ran to.
	MaxN int `json:"maxN"`
	// Saturated reports the target was reached; SaturationN is the smallest
	// population whose per-server utilization meets it (0 when not reached).
	Saturated   bool `json:"saturated"`
	SaturationN int  `json:"saturationN,omitempty"`
	// N is SaturationN when saturated, MaxN otherwise; X/Cycle/Utilization
	// describe the system at that population (Utilization is the queried
	// station's per-server busy fraction).
	N           int     `json:"n"`
	X           float64 `json:"x"`
	Cycle       float64 `json:"cycle"`
	Utilization float64 `json:"utilization"`
	// Bottleneck names the station with the highest utilization at N.
	Bottleneck string `json:"bottleneck,omitempty"`
	// Cached reports whether the solve came from the cache.
	Cached    bool    `json:"cached"`
	ElapsedMS float64 `json:"elapsedMs"`
}
