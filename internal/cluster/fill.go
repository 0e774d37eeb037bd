package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"

	"repro/internal/core"
	"repro/internal/modelio"
	"repro/internal/telemetry"
)

// peerFiller implements server.PeerFiller: before a cold local solve, ask
// the key's other owners for their cached trajectory + checkpoint
// (POST /cluster/v1/export) and restore it, so a trajectory solved anywhere
// in the fabric serves prefix/extend hits cluster-wide. Strictly best
// effort: bounded by FillTimeout, gated by the per-peer breakers, and any
// failure just means solving cold — exactly what would have happened without
// the fill.
type peerFiller struct {
	g *Gateway
}

func (f *peerFiller) Fill(ctx context.Context, key string, _ *modelio.SolveRequest) (*core.Result, *core.Checkpoint, bool) {
	g := f.g
	candidates := g.members.Ring().Owners(key, g.cfg.Replication)
	// Ask the key's other owners first, in ownership order; a lone owner
	// has nobody to ask.
	remotes := make([]string, 0, len(candidates))
	for _, c := range candidates {
		if c != g.cfg.Self && g.members.peerUp(c) {
			remotes = append(remotes, c)
		}
	}
	if len(remotes) == 0 {
		return nil, nil, false
	}
	span := telemetry.FromContext(ctx).StartSpan("peer-fill")
	defer span.End()
	fillCtx, cancel := context.WithTimeout(ctx, g.cfg.FillTimeout)
	defer cancel()

	body, err := json.Marshal(modelio.ExportRequest{Key: key})
	if err != nil {
		return nil, nil, false
	}
	for _, peer := range remotes {
		// allowNonProbe, not allow: a fill must never consume the half-open
		// probe slot. Fills report no verdict (a 404 miss just means the
		// peer lacks the key), so a consumed slot would never be released
		// and the breaker would wedge, excluding the peer until restart.
		if !g.peer(peer).breaker.allowNonProbe() {
			continue
		}
		traj, cp, ok := f.fetch(fillCtx, peer, body, span.ID())
		if ok {
			g.metrics.fillHits.Add(1)
			span.SetAttr("peer", peer)
			span.SetAttr("n", cp.N)
			return traj, cp, true
		}
		if fillCtx.Err() != nil {
			break
		}
	}
	g.metrics.fillMisses.Add(1)
	return nil, nil, false
}

// fetch asks one peer for the key's trajectory state. A 404 (peer has no
// cached entry) and a transport error are both just misses, and neither
// feeds the breaker: fills are gated by allowNonProbe and stay entirely
// neutral, keeping the breaker's state machine driven by forwarding traffic
// alone.
func (f *peerFiller) fetch(ctx context.Context, peer string, body []byte, parentSpan string) (*core.Result, *core.Checkpoint, bool) {
	g := f.g
	req, err := newPeerRequest(ctx, http.MethodPost, "http://"+peer+"/cluster/v1/export", g.cfg.Secret, body, parentSpan)
	if err != nil {
		return nil, nil, false
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, nil, false
	}
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxExportResponseBytes))
	if err != nil {
		return nil, nil, false
	}
	var state modelio.TrajectoryState
	if err := json.Unmarshal(respBody, &state); err != nil {
		g.cfg.Logger.Warn("cluster: bad export payload", "peer", peer, "error", err)
		return nil, nil, false
	}
	traj, cp, err := state.Restore()
	if err != nil {
		g.cfg.Logger.Warn("cluster: export state rejected", "peer", peer, "error", err)
		return nil, nil, false
	}
	return traj, cp, true
}
