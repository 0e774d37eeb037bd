package cluster

import (
	"context"
	"errors"
	"net/http"
	"strings"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// maxTraceResponseBytes caps one member's fragment payload. A single trace is
// bounded by the recorder's own caps, so 16 MiB is far past anything legal.
const maxTraceResponseBytes = 16 << 20

// StitchedTrace is the GET /cluster/v1/trace/{id} body: every member's
// fragments for the trace merged into one cross-node tree.
type StitchedTrace struct {
	ID string `json:"id"`
	// Nodes lists the members that contributed fragments; Missing the
	// members that could not be reached (killed or partitioned — their spans
	// surface as orphan roots, the trace is still served).
	Nodes   []string `json:"nodes"`
	Missing []string `json:"missing,omitempty"`
	// Fragments are the raw per-node records, Tree the same data rendered as
	// an indented span tree (one line per span).
	Fragments []*obs.RecordedRequest `json:"fragments"`
	Tree      string                 `json:"tree"`
}

// handleTrace serves GET /cluster/v1/trace/{id}: fan the trace ID out to
// every ring member (the local recorder answers directly), collect each
// node's span fragments and stitch them into one tree. Members that are down
// contribute nothing; their absence is reported in "missing" and any spans
// that parented to them surface as orphan roots.
func (g *Gateway) handleTrace(w http.ResponseWriter, r *http.Request) {
	if !g.trustedHop(r) {
		g.local.WriteError(w, http.StatusForbidden, "cluster secret required")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/cluster/v1/trace/")
	if !telemetry.ValidID(id) {
		g.local.WriteError(w, http.StatusBadRequest, "bad trace id")
		return
	}
	local := nodeResult[[]*obs.RecordedRequest]{node: g.cfg.Self, val: g.local.Recorder().Get(id), ok: true}
	results := fanOut(r.Context(), fleetTimeout, &local, g.remotePeers,
		func(ctx context.Context, peer string) ([]*obs.RecordedRequest, bool) {
			// A clean "I have nothing" 404 is an answer with no fragments.
			tres, err := getJSON[server.TraceResponse](ctx, g, peer, "/debug/traces/"+id, maxTraceResponseBytes, "trace")
			return tres.Fragments, err == nil || errors.Is(err, errPeerNotFound)
		})

	out := StitchedTrace{ID: id}
	for _, res := range results {
		if !res.ok {
			out.Missing = append(out.Missing, res.node)
			continue
		}
		if len(res.val) > 0 {
			out.Nodes = append(out.Nodes, res.node)
			out.Fragments = append(out.Fragments, res.val...)
		}
	}
	if len(out.Fragments) == 0 {
		g.local.WriteError(w, http.StatusNotFound, "trace not found on any reachable member")
		return
	}
	var tree strings.Builder
	obs.RenderTree(&tree, obs.Stitch(out.Fragments))
	out.Tree = tree.String()
	g.local.WriteJSON(w, http.StatusOK, out)
}
