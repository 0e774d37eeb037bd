package cluster

import (
	"context"
	"net/http"
	"time"

	"repro/internal/modelio"
)

// maxSelfResponseBytes caps one member's self-report payload; the curve is
// downsampled to at most 64 points, so 1 MiB is far past anything legal.
const maxSelfResponseBytes = 1 << 20

// handleSelf serves GET /cluster/v1/self: every ring member's self-model
// (the local server answers directly) aggregated into a fleet headroom view
// — summed in-flight, max-safe concurrency and headroom over the nodes whose
// models are ready, plus the advisory shed signal if any node raises it.
func (g *Gateway) handleSelf(w http.ResponseWriter, r *http.Request) {
	if !g.trustedHop(r) {
		g.local.WriteError(w, http.StatusForbidden, "cluster secret required")
		return
	}
	start := time.Now()
	local := nodeResult[modelio.SelfResponse]{node: g.cfg.Self, val: g.local.SelfReport(), ok: true}
	results := fanOut(r.Context(), fleetTimeout, &local, g.remotePeers, g.peerSelf)

	out := modelio.ClusterSelfResponse{Self: g.cfg.Self}
	for i := range results {
		res := &results[i]
		if !res.ok {
			out.Missing = append(out.Missing, res.node)
			out.Nodes = append(out.Nodes, modelio.ClusterSelfNode{
				Member: res.node, Error: "unreachable",
			})
			continue
		}
		self := &res.val
		self.Node = res.node
		out.Nodes = append(out.Nodes, modelio.ClusterSelfNode{Member: res.node, Self: self})
		out.FleetInFlight += self.InFlight
		if adm := self.Admission; adm != nil {
			out.FleetShed += adm.Shed
			out.FleetRedirected += adm.Redirected
			out.FleetCoalesced += adm.Coalesced
		}
		if self.Ready {
			out.ReadyNodes++
			out.FleetMaxSafe += self.MaxSafeN
			out.FleetHeadroom += self.Headroom
			if self.ShedAdvised {
				out.ShedAdvised = true
			}
		}
	}
	out.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	g.local.WriteJSON(w, http.StatusOK, out)
}

// peerSelf reads one peer's self-report; a 404 counts as unreachable.
func (g *Gateway) peerSelf(ctx context.Context, peer string) (modelio.SelfResponse, bool) {
	self, err := getJSON[modelio.SelfResponse](ctx, g, peer, "/v1/self", maxSelfResponseBytes, "self")
	return self, err == nil
}
