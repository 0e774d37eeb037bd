package cluster

import (
	"context"
	"errors"
	"net/http"

	"repro/internal/journal"
	"repro/internal/server"
)

// maxEventsResponseBytes caps one member's journal payload. The journal's
// per-type caps bound a full dump to a few MiB of JSON, so 32 MiB is far
// past anything legal.
const maxEventsResponseBytes = 32 << 20

// FleetEvents is the GET /cluster/v1/events body: every reachable member's
// retained journal merged into one causally-ordered fleet timeline.
type FleetEvents struct {
	Self string `json:"self"`
	// Nodes lists the members that contributed events; Missing the members
	// that could not be reached (killed or partitioned — their history is
	// absent, the timeline is still served).
	Nodes   []string `json:"nodes"`
	Missing []string `json:"missing,omitempty"`
	// Events is the merged timeline. Each node's own sequence order is
	// preserved exactly (per-node causality is authoritative and immune to
	// clock skew); across nodes, events interleave by wall time.
	Events []journal.Event `json:"events"`
}

// handleEvents serves GET /cluster/v1/events: fan out to every ring member's
// /debug/events (the local journal answers directly), then merge the
// per-node slices into one fleet timeline. The type, since, trace and limit
// query parameters are forwarded to every member and re-applied to the
// merged result, so filters behave identically fleet-wide.
func (g *Gateway) handleEvents(w http.ResponseWriter, r *http.Request) {
	if !g.trustedHop(r) {
		g.local.WriteError(w, http.StatusForbidden, "cluster secret required")
		return
	}
	f, err := journal.ParseFilter(r.URL.Query())
	if err != nil {
		g.local.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	local := nodeResult[[]journal.Event]{node: g.cfg.Self, val: g.jn.Events(f), ok: true}
	path := "/debug/events"
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	results := fanOut(r.Context(), fleetTimeout, &local, g.remotePeers,
		func(ctx context.Context, peer string) ([]journal.Event, bool) {
			// A clean "journal disabled" 404 is an answer with no events.
			eres, err := getJSON[server.EventsResponse](ctx, g, peer, path, maxEventsResponseBytes, "events")
			return eres.Events, err == nil || errors.Is(err, errPeerNotFound)
		})

	out := FleetEvents{Self: g.cfg.Self}
	var timelines [][]journal.Event
	for _, res := range results {
		if !res.ok {
			out.Missing = append(out.Missing, res.node)
			continue
		}
		out.Nodes = append(out.Nodes, res.node)
		if len(res.val) > 0 {
			timelines = append(timelines, res.val)
		}
	}
	out.Events = mergeTimelines(timelines)
	if f.Limit > 0 && len(out.Events) > f.Limit {
		out.Events = out.Events[len(out.Events)-f.Limit:]
	}
	g.local.WriteJSON(w, http.StatusOK, out)
}

// mergeTimelines k-way merges per-node event slices (each ascending in that
// node's sequence order) into one timeline. The merge only ever consumes a
// slice's head, so a node's own order survives verbatim no matter what its
// clock says; across nodes the earliest wall time (ties broken by node name)
// goes first.
func mergeTimelines(timelines [][]journal.Event) []journal.Event {
	total := 0
	for _, t := range timelines {
		total += len(t)
	}
	if total == 0 {
		return nil
	}
	out := make([]journal.Event, 0, total)
	for len(timelines) > 0 {
		best := 0
		for i := 1; i < len(timelines); i++ {
			h, b := timelines[i][0], timelines[best][0]
			if h.TimeUnixMS < b.TimeUnixMS ||
				(h.TimeUnixMS == b.TimeUnixMS && h.Node < b.Node) {
				best = i
			}
		}
		out = append(out, timelines[best][0])
		timelines[best] = timelines[best][1:]
		if len(timelines[best]) == 0 {
			timelines = append(timelines[:best], timelines[best+1:]...)
		}
	}
	return out
}
