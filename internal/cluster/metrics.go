package cluster

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/promtext"
)

// forwardOutcomes are the label values of the forward-duration histogram, in
// exposition order: a clean first-attempt win, a hedge that beat the primary,
// a retry-round win, and the all-candidates-failed local fallback.
var forwardOutcomes = [...]string{"ok", "hedge_win", "retry", "fallback"}

// clusterMetrics are the gateway's counters, rendered as an extra Prometheus
// section after the local node's own /metrics output.
type clusterMetrics struct {
	// forwards counts requests sent to a peer (per attempt, hedges
	// included); forwardFailures the attempts that errored or returned 5xx.
	forwards        atomic.Uint64
	forwardFailures atomic.Uint64
	// hedges counts the backup requests launched after the hedge delay.
	hedges atomic.Uint64
	// localFallbacks counts requests served locally because every remote
	// candidate was down, broken or failing — the "no client-visible 5xx"
	// path.
	localFallbacks atomic.Uint64
	// redirects counts refused requests shipped to a peer with advertised
	// headroom (the admission gate's divert path; the per-node decision
	// counters live in solverd_admission_*).
	redirects atomic.Uint64
	// fillHits/fillMisses count peer cache fill lookups (a hit restored a
	// peer's trajectory, a miss fell through to a cold local solve).
	fillHits   atomic.Uint64
	fillMisses atomic.Uint64

	// fwdDur histograms the end-to-end forward() duration — hedges, retries
	// and backoff included — per outcome label, lazily built on first
	// observation.
	fwdMu  sync.Mutex
	fwdDur map[string]*promtext.Histogram
}

// observeForward records one completed forward ladder under its outcome.
// traceID (may be empty) becomes the latency bucket's exemplar, so a slow
// bucket on a dashboard links straight to the hedged request's stitched
// trace.
func (m *clusterMetrics) observeForward(outcome string, seconds float64, traceID string) {
	m.fwdMu.Lock()
	defer m.fwdMu.Unlock()
	if m.fwdDur == nil {
		m.fwdDur = make(map[string]*promtext.Histogram, len(forwardOutcomes))
	}
	h := m.fwdDur[outcome]
	if h == nil {
		h, _ = promtext.NewHistogram(promtext.LatencyBounds()...)
		m.fwdDur[outcome] = h
	}
	h.ObserveWithExemplar(seconds, traceID, float64(time.Now().UnixMilli())/1000)
}

// writeMetrics renders the cluster section. The gateway passes the current
// ring and per-peer state so gauges reflect the live topology.
func (g *Gateway) writeMetrics(w io.Writer) error {
	p := promtext.NewWriter(w)
	p.Gauge("solverd_cluster_ring_nodes", "Members currently in the routing ring.").Int(g.members.Ring().Len())

	// Each per-peer family is one contiguous group, so the peers are walked
	// once per family.
	p.Gauge("solverd_cluster_peer_up", "Peer liveness from /healthz probes (1 up, 0 down).")
	for _, peer := range g.remotePeers {
		up := 0
		if g.members.peerUp(peer) {
			up = 1
		}
		p.Int(up, "peer", peer)
	}
	p.Gauge("solverd_cluster_breaker_open", "Peer circuit breaker state (1 open or half-open, 0 closed).")
	for _, peer := range g.remotePeers {
		open := 0
		if state, _ := g.peer(peer).breaker.snapshot(); state != breakerClosed {
			open = 1
		}
		p.Int(open, "peer", peer)
	}
	p.Counter("solverd_cluster_breaker_opens_total", "Transitions of a peer's circuit breaker into the open state.")
	for _, peer := range g.remotePeers {
		_, opens := g.peer(peer).breaker.snapshot()
		p.Uint(opens, "peer", peer)
	}

	m := &g.metrics
	p.Counter("solverd_cluster_forwards_total", "Requests forwarded to a peer (hedges included).").Uint(m.forwards.Load())
	p.Counter("solverd_cluster_forward_failures_total", "Forward attempts that errored or returned a 5xx.").Uint(m.forwardFailures.Load())
	p.Counter("solverd_cluster_hedges_total", "Backup requests launched after the hedge delay.").Uint(m.hedges.Load())
	p.Counter("solverd_cluster_local_fallbacks_total", "Requests served locally after every remote candidate failed.").Uint(m.localFallbacks.Load())
	p.Counter("solverd_cluster_redirects_total", "Admission-refused requests shipped to a peer with advertised headroom.").Uint(m.redirects.Load())
	p.Counter("solverd_cluster_peer_fill_hits_total", "Cold solves warm-started from a peer's exported trajectory.").Uint(m.fillHits.Load())
	p.Counter("solverd_cluster_peer_fill_misses_total", "Peer fill lookups that found no cached trajectory.").Uint(m.fillMisses.Load())

	p.Histogram("solverd_cluster_forward_duration_seconds", "End-to-end forward ladder duration (hedges, retries and backoff included), by outcome.")
	empty, _ := promtext.NewHistogram(promtext.LatencyBounds()...)
	m.fwdMu.Lock()
	defer m.fwdMu.Unlock()
	for _, o := range forwardOutcomes {
		h := m.fwdDur[o]
		if h == nil {
			h = empty // every outcome label is always exposed, zeroed until seen
		}
		p.Buckets(h, "outcome", o)
	}
	return p.Err()
}
