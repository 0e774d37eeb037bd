package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// headerRedirected marks an admission redirect: a hop the sender chose by
// advertised headroom after its own gate refused the request. The receiver
// serves it unconditionally — a second hop could ping-pong between two
// saturated nodes — so redirects are one-hop by construction.
const headerRedirected = "X-Cluster-Redirected"

// headroomView is the gateway's cached slice of the fleet self-model used to
// pick redirect targets: which remote peers currently advertise positive
// predicted headroom. It is refreshed at most once per RedirectTTL (sheds are
// burst-shaped; per-request fan-out would hammer saturated peers hardest) and
// consumed optimistically — each redirect decrements the target's cached
// headroom so a burst spreads instead of dogpiling the roomiest peer.
type headroomView struct {
	mu       sync.Mutex
	ttl      time.Duration
	fetched  time.Time
	headroom map[string]int // remote peer → last advertised headroom
}

// redirectCandidates returns the remote peers to try, roomiest first. A
// stale view is refreshed inline (serialized by the mutex, bounded by the
// probe-sized per-peer timeout) against /v1/self of every up peer.
func (g *Gateway) redirectCandidates(r *http.Request) []string {
	v := &g.headroom
	v.mu.Lock()
	defer v.mu.Unlock()
	if time.Since(v.fetched) >= v.ttl || v.headroom == nil {
		g.refreshHeadroomLocked(r)
	}
	out := make([]string, 0, len(v.headroom))
	for peer, h := range v.headroom {
		if h > 0 && g.members.peerUp(peer) {
			out = append(out, peer)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if v.headroom[out[i]] != v.headroom[out[j]] {
			return v.headroom[out[i]] > v.headroom[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// consumeHeadroom charges one redirected request against the cached view.
func (g *Gateway) consumeHeadroom(peer string) {
	v := &g.headroom
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.headroom[peer]; ok {
		v.headroom[peer] = h - 1
	}
}

// refreshHeadroomLocked re-fans the fleet self view (view mutex held). Peers
// that are down, unready or answer without a ready model advertise no
// headroom.
func (g *Gateway) refreshHeadroomLocked(r *http.Request) {
	fresh := make(map[string]int, len(g.remotePeers))
	for _, res := range fanOut(r.Context(), g.cfg.ProbeTimeout, nil, g.members.upPeers(), g.peerSelf) {
		if res.ok && res.val.Ready {
			fresh[res.node] = res.val.Headroom
		}
	}
	g.headroom.headroom = fresh
	g.headroom.fetched = time.Now()
}

// admitOrDivert is the routing-layer admission gate wrapped around a local
// solve: admitted requests run local() unchanged; a refusal (enforce mode,
// past the predicted knee) is first redirected to a ring peer with positive
// advertised headroom — breaker- and secret-aware, via the same forwarding
// machinery as routing — and shed with 429 + Retry-After only when the whole
// fleet is out of headroom. Either refusal drops the request's self-model
// sample: this node did no solve work.
func (g *Gateway) admitOrDivert(w http.ResponseWriter, r *http.Request, path string, body []byte, local func()) {
	adm := g.local.Admission()
	if r.Header.Get(headerRedirected) != "" && g.trustedHop(r) {
		// One-hop rule: the sender already consulted our advertised headroom.
		local()
		return
	}
	dec := adm.Evaluate()
	if dec.Admit {
		local()
		return
	}
	server.DropSample(r.Context())
	if g.redirectOverloaded(w, r, path, body) {
		adm.RecordRedirected()
		return
	}
	adm.RecordShed()
	telemetry.FromContext(r.Context()).SetAttr("admission", "shed")
	g.local.WriteShed(w, dec)
}

// admitShedOnly gates an entry point that cannot be redirected (deep-solve
// coordination and sweep fan-out are pinned to the receiving node): admit,
// or shed with 429 + Retry-After and report false.
func (g *Gateway) admitShedOnly(w http.ResponseWriter, r *http.Request) bool {
	adm := g.local.Admission()
	dec := adm.Evaluate()
	if dec.Admit {
		return true
	}
	server.DropSample(r.Context())
	adm.RecordShed()
	telemetry.FromContext(r.Context()).SetAttr("admission", "shed")
	g.local.WriteShed(w, dec)
	return false
}

// redirectOverloaded tries each headroom candidate in turn and relays the
// first answer. Transport errors and 5xx feed the peer's breaker and fail
// over to the next candidate; reported=true means the client got a response.
func (g *Gateway) redirectOverloaded(w http.ResponseWriter, r *http.Request, path string, body []byte) bool {
	candidates := g.redirectCandidates(r)
	if len(candidates) == 0 {
		return false
	}
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.ForwardTimeout)
	defer cancel()
	redirected := http.Header{headerRedirected: []string{g.cfg.Self}}
	for _, peer := range candidates {
		ps := g.peer(peer)
		if ps == nil || !ps.breaker.allow(time.Now()) {
			continue
		}
		res := g.forwardOne(ctx, peer, path, body, false, redirected)
		if g.breakerVerdict(ctx, ps, res) {
			return false
		}
		if !res.good() {
			continue
		}
		g.consumeHeadroom(peer)
		g.metrics.redirects.Add(1)
		telemetry.FromContext(r.Context()).SetAttr("admission", "redirected")
		g.jn.Append(journal.TypeRedirect,
			fmt.Sprintf("admission-refused request redirected to %s", peer),
			journal.Event{
				TraceID: telemetry.FromContext(r.Context()).ID(),
				Attrs:   []journal.Attr{{Key: "peer", Value: peer}, {Key: "path", Value: path}},
			})
		w.Header().Set(headerPeer, res.peer)
		g.local.WriteBody(w, res.status, res.contentType, res.body)
		return true
	}
	return false
}
