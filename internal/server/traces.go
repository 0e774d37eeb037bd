package server

import (
	"net/http"
	"strings"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// TraceIndexResponse is the GET /debug/traces body: recorder occupancy plus
// the retained traces, newest first.
type TraceIndexResponse struct {
	Node   string             `json:"node"`
	Stats  obs.Stats          `json:"stats"`
	Traces []obs.TraceSummary `json:"traces"`
}

// TraceResponse is the GET /debug/traces/{id} body: one node's span
// fragments for the trace. The cluster's stitch endpoint collects these from
// every member.
type TraceResponse struct {
	ID        string                 `json:"id"`
	Node      string                 `json:"node"`
	Fragments []*obs.RecordedRequest `json:"fragments"`
}

// handleTraceIndex serves GET /debug/traces: the flight recorder's index of
// retained (slow, error or sampled) traces.
func (s *Server) handleTraceIndex(w http.ResponseWriter, _ *http.Request) {
	rec := s.cfg.Recorder
	if rec == nil {
		s.WriteError(w, http.StatusNotFound, "flight recorder disabled")
		return
	}
	s.WriteJSON(w, http.StatusOK, TraceIndexResponse{
		Node:   rec.Node(),
		Stats:  rec.Stats(),
		Traces: rec.Index(),
	})
}

// handleTraceGet serves GET /debug/traces/{id}: this node's span fragments
// for one trace ID.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	rec := s.cfg.Recorder
	if rec == nil {
		s.WriteError(w, http.StatusNotFound, "flight recorder disabled")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/traces/")
	if !telemetry.ValidID(id) {
		s.WriteError(w, http.StatusBadRequest, "bad trace id")
		return
	}
	frags := rec.Get(id)
	if len(frags) == 0 {
		s.WriteError(w, http.StatusNotFound, "trace not found")
		return
	}
	s.WriteJSON(w, http.StatusOK, TraceResponse{ID: id, Node: rec.Node(), Fragments: frags})
}
