package server

import (
	"fmt"
	"net/http"
	"strings"

	"repro/internal/journal"
)

// EventsResponse is the GET /debug/events body: one node's journal slice
// plus its occupancy stats. The cluster's fleet-timeline endpoint collects
// these from every member and merges them.
type EventsResponse struct {
	Node   string          `json:"node"`
	Stats  journal.Stats   `json:"stats"`
	Events []journal.Event `json:"events"`
}

// handleEvents serves GET /debug/events: the node's retained journal events
// in sequence order, filtered by the query parameters journal.ParseFilter
// reads (type, since, trace, limit).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	jn := s.cfg.Journal
	if !jn.Enabled() {
		s.WriteError(w, http.StatusNotFound, "event journal disabled")
		return
	}
	f, err := journal.ParseFilter(r.URL.Query())
	if err != nil {
		s.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.WriteJSON(w, http.StatusOK, EventsResponse{
		Node:   jn.Node(),
		Stats:  jn.Stats(),
		Events: jn.Events(f),
	})
}

// ProfilesResponse is the GET /debug/profiles body: the anomaly profile
// store's retained captures (metadata only; the raw pprof bytes are served
// per profile) plus its health counters.
type ProfilesResponse struct {
	Node     string               `json:"node"`
	Stats    journal.ProfileStats `json:"stats"`
	Profiles []journal.Profile    `json:"profiles"`
}

// handleProfileIndex serves GET /debug/profiles: capture metadata plus
// store health.
func (s *Server) handleProfileIndex(w http.ResponseWriter, _ *http.Request) {
	ps := s.cfg.Profiles
	if !ps.Enabled() {
		s.WriteError(w, http.StatusNotFound, "anomaly profile capture disabled")
		return
	}
	s.WriteJSON(w, http.StatusOK, ProfilesResponse{
		Node:     s.cfg.Journal.Node(),
		Stats:    ps.Stats(),
		Profiles: ps.List(),
	})
}

// handleProfileGet serves GET /debug/profiles/{id}: the raw pprof proto of
// one capture, ready for `go tool pprof`. ?kind=heap selects the heap
// snapshot (when the store captures them); the default is the CPU profile.
// A capture still in flight answers 409 so callers can retry.
func (s *Server) handleProfileGet(w http.ResponseWriter, r *http.Request) {
	ps := s.cfg.Profiles
	if !ps.Enabled() {
		s.WriteError(w, http.StatusNotFound, "anomaly profile capture disabled")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/profiles/")
	pr, ok := ps.Get(id)
	if !ok {
		s.WriteError(w, http.StatusNotFound, "profile not found")
		return
	}
	switch pr.State {
	case "capturing":
		s.WriteError(w, http.StatusConflict, fmt.Sprintf("profile %s still capturing", id))
		return
	case "failed":
		s.WriteError(w, http.StatusGone, fmt.Sprintf("profile %s failed: %s", id, pr.Error))
		return
	}
	body := pr.CPU
	kind := r.URL.Query().Get("kind")
	switch kind {
	case "", "cpu":
		kind = "cpu"
	case "heap":
		body = pr.Heap
		if len(body) == 0 {
			s.WriteError(w, http.StatusNotFound, "no heap snapshot for this capture")
			return
		}
	default:
		s.WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad kind %q (want cpu or heap)", kind))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%s-%s.pb.gz", id, kind))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}
