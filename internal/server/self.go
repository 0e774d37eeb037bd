package server

import (
	"net/http"

	"repro/internal/modelio"
	"repro/internal/selfmodel"
)

// SelfMonitor exposes the node's self-model monitor (never nil). Tests and
// the examples feed it synthetic windows; the cluster gateway reads it for
// the fleet view.
func (s *Server) SelfMonitor() *selfmodel.Monitor { return s.selfmon }

// SelfReport snapshots the self-model as the /v1/self wire shape. The
// in-flight count and headroom are recomputed live rather than taken from
// the last published window, so the figure is current even mid-window.
func (s *Server) SelfReport() modelio.SelfResponse {
	rep := s.selfmon.Report()
	inFlight := s.selfmon.InFlight()
	cfg := s.selfmon.Config()
	st := s.admission.Stats()
	resp := modelio.SelfResponse{
		Workers:  cfg.Workers,
		MaxN:     cfg.MaxN,
		InFlight: inFlight,
		Admission: &modelio.SelfAdmission{
			Mode:            st.Mode.String(),
			Admitted:        st.Admitted,
			OverCapacity:    st.OverCapacity,
			Shed:            st.Shed,
			Redirected:      st.Redirected,
			Coalesced:       st.Coalesced,
			CoalesceWaiters: st.CoalesceWaiters,
		},
	}
	if rep == nil {
		return resp
	}
	resp.Ready = rep.Ready
	resp.SnapshotVersion = rep.SnapshotVersion
	resp.Windows = rep.Windows
	resp.Completions = rep.Completions
	resp.ObservedConcurrency = rep.ObservedConcurrency
	resp.ObservedThroughput = rep.ObservedX
	resp.ObservedP50Seconds = rep.ObservedP50
	resp.ObservedP99Seconds = rep.ObservedP99
	resp.PredictedThroughput = rep.PredictedX
	resp.PredictedP50Seconds = rep.PredictedP50
	resp.PredictedP99Seconds = rep.PredictedP99
	resp.Saturated = rep.Saturated
	resp.KneeN = rep.KneeN
	resp.P99LimitN = rep.P99LimitN
	resp.MaxSafeN = rep.MaxSafeN
	resp.LastFitError = rep.LastFitError
	if rep.Ready {
		resp.Headroom = rep.MaxSafeN - inFlight
		resp.ShedAdvised = resp.Headroom <= 0
	}
	for _, d := range rep.Deviations {
		resp.Deviations = append(resp.Deviations, modelio.SelfDeviation{
			Metric:   d.Metric,
			Ratio:    d.Ratio,
			Bound:    d.Bound,
			Breached: d.Breached,
			Breaches: d.Breaches,
		})
	}
	for _, p := range rep.Curve {
		resp.Curve = append(resp.Curve, modelio.SelfCurvePoint{
			N:            p.N,
			X:            p.X,
			CycleSeconds: p.Cycle,
			Utilization:  p.Util,
		})
	}
	return resp
}

// handleSelf serves GET /v1/self: the node's live self-model — predicted
// throughput/latency-vs-concurrency curve, saturation knee and headroom.
// Before the first demand fit it answers with ready=false and the raw
// observation totals, never an error: the self-model warming up is a normal
// state, not a failure.
func (s *Server) handleSelf(w http.ResponseWriter, r *http.Request) {
	s.WriteJSON(w, http.StatusOK, s.SelfReport())
}
