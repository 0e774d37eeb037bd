package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// traceFanoutTimeout bounds the whole trace collection round: fragment reads
// are small and local, so a member that cannot answer in this window is
// treated as missing rather than stalling the stitch.
const traceFanoutTimeout = 5 * time.Second

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
	ctx, cancel := context.WithTimeout(r.Context(), traceFanoutTimeout)
	defer cancel()

	type nodeFrags struct {
		node  string
		frags []*obs.RecordedRequest
		ok    bool
	}
	results := make([]nodeFrags, 1+len(g.remotePeers))
	results[0] = nodeFrags{node: g.cfg.Self, frags: g.local.Recorder().Get(id), ok: true}
	var wg sync.WaitGroup
	for i, peer := range g.remotePeers {
		wg.Add(1)
		go func(slot int, peer string) {
			defer wg.Done()
			frags, ok := g.fetchTraceFragments(ctx, peer, id)
			results[slot] = nodeFrags{node: peer, frags: frags, ok: ok}
		}(1+i, peer)
	}
	wg.Wait()

	out := StitchedTrace{ID: id}
	for _, res := range results {
		if !res.ok {
			out.Missing = append(out.Missing, res.node)
			continue
		}
		if len(res.frags) > 0 {
			out.Nodes = append(out.Nodes, res.node)
			out.Fragments = append(out.Fragments, res.frags...)
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

// fetchTraceFragments asks one peer for its local fragments of the trace.
// ok=false means the peer could not answer (down, erroring, or recorder
// disabled); a clean "I have nothing" 404 is ok=true with no fragments.
func (g *Gateway) fetchTraceFragments(ctx context.Context, peer, id string) ([]*obs.RecordedRequest, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+peer+"/debug/traces/"+id, nil)
	if err != nil {
		return nil, false
	}
	req.Header.Set("X-Request-Id", telemetry.NewID())
	if g.cfg.Secret != "" {
		req.Header.Set(headerSecret, g.cfg.Secret)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, true
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxTraceResponseBytes))
	if err != nil {
		return nil, false
	}
	var tres server.TraceResponse
	if err := json.Unmarshal(body, &tres); err != nil {
		g.cfg.Logger.Warn("cluster: bad trace payload", "peer", peer, "error", err)
		return nil, false
	}
	return tres.Fragments, true
}
