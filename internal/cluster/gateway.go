package cluster

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"time"

	"repro/internal/journal"
	"repro/internal/modelio"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// Defaults for Config's zero values.
const (
	DefaultReplication  = 2
	DefaultVirtualNodes = 64
)

// headerForwarded marks an intra-cluster hop: a request carrying it is served
// locally, never re-routed, so forwarding cannot loop even when two nodes
// briefly disagree about the ring.
const headerForwarded = "X-Cluster-Forwarded"

// headerPeer reports, on gateway responses, which node actually served.
const headerPeer = "X-Cluster-Peer"

// headerSecret carries the shared cluster secret on intra-cluster requests
// when Config.Secret is set.
const headerSecret = "X-Cluster-Secret"

// Config tunes one node's gateway.
type Config struct {
	// Self is this node's advertised host:port — the name its peers know it
	// by; it must appear in Peers.
	Self string
	// Peers lists every cluster member (Self included) as host:port.
	Peers []string
	// Replication is how many nodes hold each key: the owner plus R−1
	// replicas (default 2, capped at the member count).
	Replication int
	// VirtualNodes is the ring positions per member (default 64).
	VirtualNodes int
	// ProbeInterval spaces the /healthz probes per peer (default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round-trip (default 1s).
	ProbeTimeout time.Duration
	// FailAfter marks a peer down after this many consecutive probe
	// failures (default 2); RecoverAfter brings it back after this many
	// consecutive successes (default 1).
	FailAfter, RecoverAfter int
	// MaxAttempts caps forwarding rounds over a key's candidate peers
	// before falling back to a local solve (default 2).
	MaxAttempts int
	// RetryBackoff is the base delay between forwarding rounds; each round
	// doubles it and adds up to 50% jitter (default 25ms).
	RetryBackoff time.Duration
	// HedgePercentile picks the hedge trigger from the target peer's recent
	// latency window (default 0.9: hedge when the request outlives the
	// peer's p90), clamped to [HedgeMin, HedgeMax] (defaults 25ms, 2s).
	HedgePercentile    float64
	HedgeMin, HedgeMax time.Duration
	// BreakerThreshold consecutive failures open a peer's circuit breaker
	// (default 3); BreakerCooldown is how long it stays open before one
	// half-open probe is allowed (default 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// ForwardTimeout bounds one forwarded request (default 35s — past the
	// server's default solve deadline).
	ForwardTimeout time.Duration
	// FillTimeout bounds a peer cache fill lookup on the cold-solve path
	// (default 2s); fills are best effort, a slow peer must not stall the
	// solve it is trying to speed up.
	FillTimeout time.Duration
	// RedirectTTL bounds how long the gateway trusts a fetched fleet
	// headroom view when redirecting admission-refused requests (default
	// 1s). Sheds come in bursts; caching the view keeps a saturated node
	// from hammering its peers' /v1/self exactly when they are busiest.
	RedirectTTL time.Duration
	// Secret, when set, authenticates the fabric's own protocol: every
	// /cluster/v1/* request and every X-Cluster-Forwarded hop must carry it
	// in X-Cluster-Secret (wrong or missing secret gets a 403, and a forged
	// forwarded header is ignored — the request is routed like any external
	// one). The gateway attaches it to the forwards and fills it sends, so
	// all members must agree on the value. Unset (the default) the fabric
	// protocol is open: run the cluster on a network where every client is
	// trusted, or front it with a separate listener.
	Secret string
	// Logger defaults to slog.Default().
	Logger *slog.Logger
}

func (c *Config) defaults() error {
	if c.Self == "" {
		return errors.New("cluster: config needs Self")
	}
	found := false
	for _, p := range c.Peers {
		if p == c.Self {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("cluster: Self %q is not in Peers %v", c.Self, c.Peers)
	}
	if c.Replication <= 0 {
		c.Replication = DefaultReplication
	}
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = DefaultVirtualNodes
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.RecoverAfter <= 0 {
		c.RecoverAfter = 1
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.HedgePercentile <= 0 || c.HedgePercentile > 1 {
		c.HedgePercentile = 0.9
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 25 * time.Millisecond
	}
	if c.HedgeMax <= 0 {
		c.HedgeMax = 2 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 35 * time.Second
	}
	if c.FillTimeout <= 0 {
		c.FillTimeout = 2 * time.Second
	}
	if c.RedirectTTL <= 0 {
		c.RedirectTTL = time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return nil
}

// peerState is the per-remote-peer forwarding state.
type peerState struct {
	breaker *breaker
	latency *latencyTracker
}

// Gateway fronts one solverd node with cluster routing. It installs itself
// as the node's root handler (server.Mount): /v1/solve and /v1/sweep are
// routed by cache key across the ring, /cluster/v1/* serve the fabric's own
// protocol, and every other path falls through to the local mux unchanged.
type Gateway struct {
	cfg         Config
	local       *server.Server
	mux         *http.ServeMux
	members     *membership
	remotePeers []string // cfg.Peers minus Self, sorted
	peers       map[string]*peerState
	client      *http.Client
	metrics     clusterMetrics

	// jn and prof are the local server's event journal and anomaly profile
	// store (both nil-safe): the gateway journals breaker transitions,
	// membership changes, hedges, redirects and deep-chunk failovers, and
	// captures a profile when a breaker trips.
	jn   *journal.Journal
	prof *journal.ProfileStore

	// headroom caches the fleet headroom view the admission gate redirects
	// by (admission.go).
	headroom headroomView
}

// New wires a gateway onto srv: it mounts itself as the root handler,
// installs the peer cache filler and registers the cluster metrics section.
// Call Start to begin health probing (before serving traffic).
func New(srv *server.Server, cfg Config) (*Gateway, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:      cfg,
		local:    srv,
		mux:      http.NewServeMux(),
		peers:    make(map[string]*peerState),
		headroom: headroomView{ttl: cfg.RedirectTTL},
		client: &http.Client{
			Timeout: cfg.ForwardTimeout,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}
	g.jn = srv.Journal()
	g.prof = srv.Profiles()
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			continue
		}
		if _, dup := g.peers[p]; dup {
			continue
		}
		g.remotePeers = append(g.remotePeers, p)
		br := newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
		br.onTransition = g.breakerTransition(p)
		g.peers[p] = &peerState{
			breaker: br,
			latency: newLatencyTracker(),
		}
	}
	sort.Strings(g.remotePeers)
	probeClient := &http.Client{Timeout: cfg.ProbeTimeout}
	g.members = newMembership(cfg.Self, g.remotePeers, cfg.VirtualNodes,
		cfg.ProbeInterval, cfg.FailAfter, cfg.RecoverAfter, probeClient, cfg.Logger, cfg.Secret)
	g.members.jn = g.jn

	g.mux.Handle("/v1/solve", srv.Instrument("cluster-solve", http.MethodPost, g.handleSolve))
	g.mux.Handle("/v1/sweep", srv.Instrument("cluster-sweep", http.MethodPost, g.handleSweep))
	g.mux.Handle("/cluster/v1/deep", srv.Instrument("cluster-deep", http.MethodPost, g.handleDeepChunk))
	g.mux.Handle("/cluster/v1/export", srv.Instrument("cluster-export", http.MethodPost, g.handleExport))
	g.mux.Handle("/cluster/v1/status", srv.Instrument("cluster-status", http.MethodGet, g.handleClusterStatus))
	g.mux.Handle("/cluster/v1/self", srv.Instrument("cluster-self", http.MethodGet, g.handleSelf))
	g.mux.Handle("/cluster/v1/trace/", srv.Instrument("cluster-trace", http.MethodGet, g.handleTrace))
	g.mux.Handle("/cluster/v1/events", srv.Instrument("cluster-events", http.MethodGet, g.handleEvents))
	g.mux.Handle("/", srv.Handler())

	srv.Mount(g)
	srv.SetPeerFiller(&peerFiller{g: g})
	srv.RegisterMetrics(g.writeMetrics)
	return g, nil
}

// Start begins health probing; probes stop when ctx ends or Stop is called.
func (g *Gateway) Start(ctx context.Context) { g.members.start(ctx) }

// Stop halts probing and waits for the probe goroutines.
func (g *Gateway) Stop() { g.members.stopMembership() }

// Ring returns the current routing ring (for tests and status).
func (g *Gateway) Ring() *Ring { return g.members.Ring() }

func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

func (g *Gateway) peer(name string) *peerState { return g.peers[name] }

// breakerTransition builds peer's circuit-breaker transition hook: every
// state change becomes a journal event, and a trip (any state -> open) also
// grabs an anomaly profile — the moment a peer starts failing is exactly when
// the surviving node's own load profile is worth keeping.
func (g *Gateway) breakerTransition(peer string) func(from, to breakerState) {
	return func(from, to breakerState) {
		var profileID string
		if to == breakerOpen && from != breakerOpen {
			profileID, _ = g.prof.Capture(journal.TypeBreaker, "")
		}
		g.jn.Append(journal.TypeBreaker,
			fmt.Sprintf("peer %s breaker %s -> %s", peer, from, to), journal.Event{
				ProfileID: profileID,
				Attrs: []journal.Attr{
					{Key: "peer", Value: peer},
					{Key: "from", Value: from.String()},
					{Key: "to", Value: to.String()},
				},
			})
	}
}

// trustedHop reports whether a request claiming to come from inside the
// fabric (a forwarded hop or a /cluster/v1/* call) really did. With no
// Secret configured every claim is trusted — the documented open-trust mode.
func (g *Gateway) trustedHop(r *http.Request) bool {
	if g.cfg.Secret == "" {
		return true
	}
	return subtle.ConstantTimeCompare([]byte(r.Header.Get(headerSecret)), []byte(g.cfg.Secret)) == 1
}

// handleSolve routes POST /v1/solve: a forwarded hop (or a key this node
// owns) solves locally through the server engine; anything else forwards to
// the key's owner with hedging, retries and breaker-aware failover, and
// falls back to a local solve when every remote candidate fails — the
// client never sees a 5xx for a routing-layer failure.
func (g *Gateway) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req modelio.SolveRequest
	body, ok := g.local.ReadRequest(w, r, &req)
	if !ok {
		return
	}
	if err := req.Normalize(); err != nil {
		g.local.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	telemetry.FromContext(r.Context()).SetAttr("algorithm", req.Algorithm)
	key, err := req.CacheKey()
	if err != nil {
		g.local.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if r.URL.Query().Get("deep") != "" {
		// Deep solves pipeline population chunks across the cluster; the
		// receiving node coordinates, so they are never routed or forwarded —
		// the gate can only shed them, not redirect.
		if !g.admitShedOnly(w, r) {
			return
		}
		g.handleDeepSolve(w, r, &req, key)
		return
	}
	local := func() {
		ctx, cancel := g.local.SolveContext(r.Context(), req.TimeoutMS)
		defer cancel()
		resp, err := g.local.SolveKeyed(ctx, key, &req)
		if err != nil {
			g.local.WriteError(w, server.StatusOf(err), err.Error())
			return
		}
		w.Header().Set(headerPeer, g.cfg.Self)
		g.local.WriteJSON(w, http.StatusOK, resp)
	}
	// Every path that would solve on this node's workers runs through the
	// admission gate, which can divert past-the-knee arrivals to a peer with
	// headroom (admission.go). A forwarded hop is gated too — the owner is
	// exactly the node a hot key saturates first — and its refusal flows back
	// through the sender's forward as a non-5xx response.
	serve := func() { g.admitOrDivert(w, r, "/v1/solve", body, local) }
	if r.Header.Get(headerForwarded) != "" && g.trustedHop(r) {
		serve()
		return
	}
	g.route(w, r, key, "/v1/solve", body, serve)
}

// handleSweep routes POST /v1/sweep through the server's sweep engine
// (server.SweepGroups), which plans the grid and keys every group exactly
// as a standalone node does; only the answer to each group is
// cluster-specific. A forwarded hop answers its one group locally; an entry
// sweep sends each group to its key's owner (sweepGroup), so a grid's groups
// land on (and warm the caches of) their owners across the fabric.
func (g *Gateway) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req modelio.SweepRequest
	if _, ok := g.local.ReadRequest(w, r, &req); !ok {
		return
	}
	if err := req.Normalize(); err != nil {
		g.local.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Routed sub-sweeps are served here and not re-gated: shedding one group
	// would hole the coordinator's grid, and the coordinator's own entry gate
	// already bounded the fan-out's origin. The coordinator fans groups from
	// this node, so like deep solves it can only be shed, not redirected.
	forwarded := r.Header.Get(headerForwarded) != "" && g.trustedHop(r)
	if !forwarded && !g.admitShedOnly(w, r) {
		return
	}
	ctx, cancel := g.local.SolveContext(r.Context(), req.TimeoutMS)
	defer cancel()
	resp, err := g.local.SweepGroups(ctx, &req, func(ctx context.Context, p modelio.GridPoint, key string) modelio.SweepPointResult {
		if forwarded {
			return g.local.SweepGroup(ctx, &req, p, key)
		}
		return g.sweepGroup(ctx, &req, p, key)
	})
	if err != nil {
		g.local.WriteError(w, server.StatusOf(err), err.Error())
		return
	}
	if forwarded {
		w.Header().Set(headerPeer, g.cfg.Self)
	}
	g.local.WriteJSON(w, http.StatusOK, resp)
}

// sweepGroup answers one planned group of an entry sweep by its key: locally
// when this node owns the key (or every remote candidate fails), otherwise
// as a one-point sub-sweep — the group's resolved model with the parent's
// populations — forwarded to the key's owner, which keys its one group to
// the same key.
func (g *Gateway) sweepGroup(ctx context.Context, req *modelio.SweepRequest, p modelio.GridPoint, key string) modelio.SweepPointResult {
	candidates := g.members.Ring().Owners(key, g.cfg.Replication)
	if len(candidates) == 0 || candidates[0] == g.cfg.Self {
		return g.local.SweepGroup(ctx, req, p, key)
	}
	body, err := json.Marshal(&modelio.SweepRequest{
		SolveRequest: *req.PointRequest(p),
		Populations:  req.Populations,
	})
	if err != nil {
		return modelio.SweepPointResult{Error: err.Error()}
	}
	res, ok := g.forward(ctx, key, "/v1/sweep", body, candidates)
	if !ok {
		g.metrics.localFallbacks.Add(1)
		return g.local.SweepGroup(ctx, req, p, key)
	}
	if res.status != http.StatusOK {
		return modelio.SweepPointResult{Error: peerErrorMessage(res)}
	}
	var resp modelio.SweepResponse
	if err := json.Unmarshal(res.body, &resp); err != nil {
		return modelio.SweepPointResult{Error: fmt.Sprintf("cluster: decoding peer sweep response: %v", err)}
	}
	if len(resp.Points) != 1 {
		return modelio.SweepPointResult{Error: fmt.Sprintf("cluster: sub-sweep returned %d points (want 1)", len(resp.Points))}
	}
	return resp.Points[0]
}

// route answers one solve-path request: locally when this node is the key's
// owner, otherwise forwarded to the owner (then replicas) with the full
// failover ladder, and locally as the last resort.
func (g *Gateway) route(w http.ResponseWriter, r *http.Request, key, path string, body []byte, local func()) {
	candidates := g.members.Ring().Owners(key, g.cfg.Replication)
	if len(candidates) == 0 || candidates[0] == g.cfg.Self {
		local()
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.ForwardTimeout)
	defer cancel()
	res, ok := g.forward(ctx, key, path, body, candidates)
	if !ok {
		g.metrics.localFallbacks.Add(1)
		telemetry.FromContext(r.Context()).SetAttr("cluster", "local-fallback")
		local()
		return
	}
	telemetry.FromContext(r.Context()).SetAttr("cluster", "forwarded")
	w.Header().Set(headerPeer, res.peer)
	g.local.WriteBody(w, res.status, res.contentType, res.body)
}

// handleExport serves POST /cluster/v1/export: the peer-fill protocol. A
// known, settled key returns its full trajectory state; anything else is a
// 404 so the asking node just solves cold.
func (g *Gateway) handleExport(w http.ResponseWriter, r *http.Request) {
	if !g.trustedHop(r) {
		g.local.WriteError(w, http.StatusForbidden, "cluster secret required")
		return
	}
	var req modelio.ExportRequest
	if _, ok := g.local.ReadRequest(w, r, &req); !ok {
		return
	}
	if err := req.Validate(); err != nil {
		g.local.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.FillTimeout)
	defer cancel()
	res, cp, ok := g.local.ExportCached(ctx, req.Key)
	if !ok {
		g.local.WriteError(w, http.StatusNotFound, "no cached trajectory for key")
		return
	}
	state, err := modelio.NewTrajectoryState(res, cp)
	if err != nil {
		g.local.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	g.local.WriteJSON(w, http.StatusOK, state)
}

// clusterStatus is the GET /cluster/v1/status body.
type clusterStatus struct {
	Self        string           `json:"self"`
	Replication int              `json:"replication"`
	RingNodes   []string         `json:"ringNodes"`
	Peers       []peerStatusView `json:"peers"`
}

type peerStatusView struct {
	Peer    string `json:"peer"`
	Up      bool   `json:"up"`
	Breaker string `json:"breaker"`
}

// handleClusterStatus serves GET /cluster/v1/status.
func (g *Gateway) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	if !g.trustedHop(r) {
		g.local.WriteError(w, http.StatusForbidden, "cluster secret required")
		return
	}
	st := clusterStatus{
		Self:        g.cfg.Self,
		Replication: g.cfg.Replication,
		RingNodes:   g.members.Ring().Nodes(),
	}
	for _, p := range g.remotePeers {
		state, _ := g.peer(p).breaker.snapshot()
		st.Peers = append(st.Peers, peerStatusView{
			Peer: p, Up: g.members.peerUp(p), Breaker: state.String(),
		})
	}
	g.local.WriteJSON(w, http.StatusOK, st)
}
