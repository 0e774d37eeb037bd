package estimate

import (
	"io"

	"repro/internal/promtext"
)

// WriteMetrics renders the estimator's ingest and fit health in Prometheus
// text format. Every per-station family emits one sample per model station
// from the first scrape, so dashboards and the exposition lint see stable
// label sets; fit residuals appear once a snapshot exists. A nil receiver is
// valid and renders the same families with no per-station series — the
// server scrapes it before any estimator has been registered.
func (e *Estimator) WriteMetrics(w io.Writer) error {
	var stations []StationHealth
	if e != nil {
		stations, _ = e.Health()
	}
	p := promtext.NewWriter(w)
	p.Counter("solverd_estimate_samples_total", "Samples accepted by the demand estimator per station.")
	for _, st := range stations {
		p.Uint(st.Accepted, "station", st.Name)
	}
	p.Counter("solverd_estimate_samples_rejected_total", "Samples rejected by the outlier filter per station.")
	for _, st := range stations {
		p.Uint(st.Rejected, "station", st.Name)
	}
	p.Counter("solverd_estimate_cell_resets_total", "Regime-shift cell resets per station.")
	for _, st := range stations {
		p.Uint(st.Resets, "station", st.Name)
	}
	p.Gauge("solverd_estimate_cells", "Distinct concurrency cells currently retained per station.")
	for _, st := range stations {
		p.Int(st.Cells, "station", st.Name)
	}
	p.Gauge("solverd_estimate_fit_ready_cells", "Cells with enough accepted samples to enter a fit, per station.")
	for _, st := range stations {
		p.Int(st.FitReady, "station", st.Name)
	}
	p.Gauge("solverd_estimate_fit_residual", "RMS relative error of the published demand curve against the smoothed cell means, per station.")
	var version, fits uint64
	if e != nil {
		if snap := e.Snapshot(); snap != nil {
			for _, st := range snap.Stations {
				p.Float(st.Residual, "station", st.Name)
			}
		}
		version, fits = e.Version(), e.Fits()
	}
	p.Gauge("solverd_estimate_snapshot_version", "Version of the published demand-curve snapshot (0 before the first fit).").Uint(version)
	p.Counter("solverd_estimate_fits_total", "Successful demand-curve fits.").Uint(fits)
	return p.Err()
}

// WriteMetrics renders the controller's re-estimation trigger counter; every
// reason in TriggerReasons is always exposed. A nil receiver renders zeros.
func (c *Controller) WriteMetrics(w io.Writer) error {
	var triggers map[string]uint64
	if c != nil {
		triggers = c.Triggers()
	}
	p := promtext.NewWriter(w)
	p.Counter("solverd_estimate_reestimate_triggers_total", "Re-estimations triggered, by reason.")
	for _, r := range TriggerReasons {
		p.Uint(triggers[r], "reason", r)
	}
	return p.Err()
}
