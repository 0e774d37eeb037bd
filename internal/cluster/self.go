package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/modelio"
	"repro/internal/telemetry"
)

// selfFanoutTimeout bounds the fleet self-model collection round. Reports
// are small in-memory reads, so a member that cannot answer in this window
// is listed as missing rather than stalling the fleet view.
const selfFanoutTimeout = 5 * time.Second

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
	ctx, cancel := context.WithTimeout(r.Context(), selfFanoutTimeout)
	defer cancel()

	type nodeSelf struct {
		node string
		self *modelio.SelfResponse
		ok   bool
	}
	results := make([]nodeSelf, 1+len(g.remotePeers))
	local := g.local.SelfReport()
	local.Node = g.cfg.Self
	results[0] = nodeSelf{node: g.cfg.Self, self: &local, ok: true}
	var wg sync.WaitGroup
	for i, peer := range g.remotePeers {
		wg.Add(1)
		go func(slot int, peer string) {
			defer wg.Done()
			self, ok := g.fetchSelf(ctx, peer)
			results[slot] = nodeSelf{node: peer, self: self, ok: ok}
		}(1+i, peer)
	}
	wg.Wait()

	out := modelio.ClusterSelfResponse{Self: g.cfg.Self}
	for _, res := range results {
		if !res.ok {
			out.Missing = append(out.Missing, res.node)
			out.Nodes = append(out.Nodes, modelio.ClusterSelfNode{
				Member: res.node, Error: "unreachable",
			})
			continue
		}
		res.self.Node = res.node
		out.Nodes = append(out.Nodes, modelio.ClusterSelfNode{Member: res.node, Self: res.self})
		out.FleetInFlight += res.self.InFlight
		if adm := res.self.Admission; adm != nil {
			out.FleetShed += adm.Shed
			out.FleetRedirected += adm.Redirected
			out.FleetCoalesced += adm.Coalesced
		}
		if res.self.Ready {
			out.ReadyNodes++
			out.FleetMaxSafe += res.self.MaxSafeN
			out.FleetHeadroom += res.self.Headroom
			if res.self.ShedAdvised {
				out.ShedAdvised = true
			}
		}
	}
	out.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	g.local.WriteJSON(w, http.StatusOK, out)
}

// fetchSelf asks one peer for its self-report. ok=false means the peer could
// not answer (down, erroring, or an undecodable payload). The sub-request
// reuses the calling request's trace id when one is in the context (a
// redirect deciding where to divert must stay under the original
// X-Request-Id in every node's access log), minting a fresh id only for
// untraced callers.
func (g *Gateway) fetchSelf(ctx context.Context, peer string) (*modelio.SelfResponse, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+peer+"/v1/self", nil)
	if err != nil {
		return nil, false
	}
	id := telemetry.FromContext(ctx).ID()
	if !telemetry.ValidID(id) {
		id = telemetry.NewID()
	}
	req.Header.Set("X-Request-Id", id)
	if g.cfg.Secret != "" {
		req.Header.Set(headerSecret, g.cfg.Secret)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxSelfResponseBytes))
	if err != nil {
		return nil, false
	}
	var self modelio.SelfResponse
	if err := json.Unmarshal(body, &self); err != nil {
		g.cfg.Logger.Warn("cluster: bad self payload", "peer", peer, "error", err)
		return nil, false
	}
	return &self, true
}
