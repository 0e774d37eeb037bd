package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
)

// membership tracks which members are serving and maintains the routing ring
// over the live ones. Each peer is probed with GET /healthz every
// ProbeInterval: FailAfter consecutive failures mark it down, RecoverAfter
// consecutive successes bring it back, and every transition rebuilds the
// ring (an atomic pointer swap — routing never blocks on probing). The local
// node is always a member; membership starts optimistic (everyone up) so a
// cold cluster routes correctly before the first probe round completes.
type membership struct {
	self         string
	peers        []string // remote members, no self
	virtualNodes int
	interval     time.Duration
	failAfter    int
	recoverAfter int
	client       *http.Client
	logger       *slog.Logger
	// secret is attached to probes as X-Cluster-Secret when set, so a probe
	// is a first-class fabric request like any forward or fill. (/healthz
	// itself is open, but symmetric headers keep traces orphan-free.)
	secret string
	// jn receives membership-change and ring-rebuild events. Nil-safe; the
	// gateway sets it before start.
	jn *journal.Journal

	states map[string]*memberState

	// ringMu serializes transitions (setUp + rebuild) so concurrent probe
	// goroutines cannot publish rings out of order; readers use the atomic
	// pointer and never take it.
	ringMu sync.Mutex
	ring   atomic.Pointer[Ring]

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

type memberState struct {
	up atomic.Bool
	// consecFail/consecOK are touched only by the peer's probe goroutine.
	consecFail, consecOK int
}

func newMembership(self string, peers []string, virtualNodes int,
	interval time.Duration, failAfter, recoverAfter int,
	client *http.Client, logger *slog.Logger, secret string) *membership {
	m := &membership{
		self:         self,
		peers:        peers,
		virtualNodes: virtualNodes,
		interval:     interval,
		failAfter:    failAfter,
		recoverAfter: recoverAfter,
		client:       client,
		logger:       logger,
		secret:       secret,
		states:       make(map[string]*memberState, len(peers)),
		stop:         make(chan struct{}),
	}
	for _, p := range peers {
		st := &memberState{}
		st.up.Store(true)
		m.states[p] = st
	}
	m.rebuild()
	return m
}

// Ring returns the current routing ring (immutable; safe to hold).
func (m *membership) Ring() *Ring { return m.ring.Load() }

// peerUp reports whether the membership currently considers peer live.
func (m *membership) peerUp(peer string) bool {
	if peer == m.self {
		return true
	}
	if st, ok := m.states[peer]; ok {
		return st.up.Load()
	}
	return false
}

// upPeers returns the live remote members, in configuration order.
func (m *membership) upPeers() []string {
	out := make([]string, 0, len(m.peers))
	for _, p := range m.peers {
		if m.states[p].up.Load() {
			out = append(out, p)
		}
	}
	return out
}

// rebuild recomputes the ring from the live member set.
func (m *membership) rebuild() {
	nodes := append([]string{m.self}, m.upPeers()...)
	m.ring.Store(NewRing(nodes, m.virtualNodes))
}

// setUp forces a peer's liveness (probe transitions and tests both land
// here); a change rebuilds the ring.
func (m *membership) setUp(peer string, up bool) {
	st, ok := m.states[peer]
	if !ok {
		return
	}
	m.ringMu.Lock()
	if st.up.Load() == up {
		m.ringMu.Unlock()
		return
	}
	st.up.Store(up)
	m.rebuild()
	m.ringMu.Unlock()
	ring := m.Ring()
	m.logger.Info("cluster: membership change",
		"peer", peer, "up", up, "ring", ring.String())
	dir := "down"
	if up {
		dir = "up"
	}
	m.jn.Append(journal.TypeMembership,
		fmt.Sprintf("peer %s marked %s", peer, dir), journal.Event{
			Attrs: []journal.Attr{
				{Key: "peer", Value: peer},
				{Key: "up", Value: strconv.FormatBool(up)},
			},
		})
	m.jn.Append(journal.TypeRingRebuild,
		fmt.Sprintf("routing ring rebuilt over %d member(s)", ring.Len()),
		journal.Event{
			Attrs: []journal.Attr{
				{Key: "nodes", Value: strings.Join(ring.Nodes(), ",")},
				{Key: "cause_peer", Value: peer},
			},
		})
}

// start launches one probe goroutine per remote peer; stopMembership (or a
// cancelled ctx) ends them.
func (m *membership) start(ctx context.Context) {
	for _, p := range m.peers {
		m.wg.Add(1)
		go m.probeLoop(ctx, p)
	}
}

// stopMembership halts probing and waits for the probe goroutines.
func (m *membership) stopMembership() {
	m.once.Do(func() { close(m.stop) })
	m.wg.Wait()
}

func (m *membership) probeLoop(ctx context.Context, peer string) {
	defer m.wg.Done()
	st := m.states[peer]
	ticker := time.NewTicker(m.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-m.stop:
			return
		case <-ticker.C:
		}
		if m.probe(ctx, peer) {
			st.consecFail, st.consecOK = 0, st.consecOK+1
			if !st.up.Load() && st.consecOK >= m.recoverAfter {
				m.setUp(peer, true)
			}
		} else {
			st.consecOK, st.consecFail = 0, st.consecFail+1
			if st.up.Load() && st.consecFail >= m.failAfter {
				m.setUp(peer, false)
			}
		}
	}
}

// probe performs one GET /healthz round-trip. Probes are built like every
// other outbound fabric request (newPeerRequest): the probe loop is untraced,
// so each probe carries a fresh X-Request-Id and is attributable in the
// peer's access log rather than an anonymous hit.
func (m *membership) probe(ctx context.Context, peer string) bool {
	req, err := newPeerRequest(ctx, http.MethodGet, "http://"+peer+"/healthz", m.secret, nil, "")
	if err != nil {
		return false
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
