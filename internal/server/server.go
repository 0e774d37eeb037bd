// Package server implements solverd, the long-running model-solving HTTP
// service: the JSON API of cmd/solverd. It exposes
//
//	POST /v1/solve   one model solved by any MVA-family algorithm
//	POST /v1/sweep   a parameter grid fanned out over a bounded worker pool
//	POST /v1/plan    the planning package's SLA queries
//	GET  /v1/self    the node's self-model: predicted saturation + headroom
//	GET  /v1/status  introspection: build info, cache entries, in-flight solves
//	GET  /healthz    liveness probe
//	GET  /metrics    Prometheus-text counters, latency histograms, gauges
//
// Request bodies reuse the modelio model/samples formats. Identical solves
// are deduplicated in flight and served from an LRU cache; per-request
// deadlines are threaded into the solver recursions (core.Solver.RunContext) so
// a runaway maxN cancels instead of pinning a worker; SIGTERM-driven
// shutdown drains in-flight requests.
//
// Every request is traced (internal/telemetry): the trace ID comes from the
// caller's X-Request-Id header when valid and is generated otherwise, is
// echoed back in X-Request-Id, keys one structured access-log line, and ties
// the debug-level span events together. Responses carry a Server-Timing
// header with the cache and solve phases.
package server

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/estimate"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/selfmodel"
)

// Config tunes the service. The zero value is usable: every field defaults.
type Config struct {
	// Addr is the listen address (default ":8080").
	Addr string
	// CacheSize caps the solve cache's entry count (default 256; negative
	// disables caching, in-flight deduplication remains).
	CacheSize int
	// Workers bounds concurrently executing solves (default GOMAXPROCS).
	Workers int
	// MaxN caps the trajectory rows any request may store (default 100000)
	// — the memory ceiling alongside RequestTimeout's work ceiling. A dense
	// request stores one row per population, so MaxN caps its population
	// directly; a decimated request stores maxN/decimate + 1 rows, which is
	// what lets a default-configured node solve million-user populations.
	MaxN int
	// MaxSweepPoints caps a sweep's grid size (default 1024).
	MaxSweepPoints int
	// RequestTimeout caps each request's solve time (default 30s); a
	// request's timeoutMs may shorten it but never extend it.
	RequestTimeout time.Duration
	// ReadTimeout bounds reading one full request, header plus body
	// (default RequestTimeout + 30s, comfortably past the longest handler
	// so the connection's read deadline never fires mid-solve).
	ReadTimeout time.Duration
	// IdleTimeout closes keep-alive connections idle for this long
	// (default 2m).
	IdleTimeout time.Duration
	// ShutdownTimeout bounds the graceful drain (default 15s).
	ShutdownTimeout time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (default off:
	// the profiling endpoints expose internals and cost CPU when scraped,
	// so they are opt-in via solverd's -pprof flag).
	EnablePprof bool
	// Logger receives the structured access log, span events (debug level)
	// and request-level errors (default slog.Default()).
	Logger *slog.Logger
	// Recorder, when non-nil, is the flight recorder fed by every completed
	// request (internal/obs tail-sampling applies) and served on
	// /debug/traces and /debug/traces/{id}. Its occupancy series join
	// /metrics. Nil disables trace retention; requests are still traced for
	// Server-Timing and logs.
	Recorder *obs.Recorder
	// Estimate tunes the online demand estimator behind /v1/observe,
	// /v1/demands and /v1/whatif (zero value: estimate.Config defaults).
	Estimate estimate.Config
	// Self tunes the node's self-model (internal/selfmodel) behind /v1/self
	// and the solverd_self_* metrics. Workers and Tracker are filled by New;
	// the zero value uses the selfmodel defaults.
	Self selfmodel.Config
	// Admission tunes the model-guided admission gate (internal/admission)
	// consulting the self-model ahead of the worker pool. The zero value observes: every request is evaluated and counted
	// but none is refused, so behavior stays identical to a gate-less node.
	Admission admission.Config
	// Journal, when non-nil, is the bounded event journal every stateful
	// subsystem feeds (deviation breaches, refits, cache invalidations and
	// evictions, admission transitions, drain) and /debug/events serves.
	// Its occupancy families join /metrics either way (zeroed when nil).
	Journal *journal.Journal
	// Profiles, when non-nil, captures rate-limited pprof profiles at the
	// moment an anomaly fires and serves them on /debug/profiles/{id}.
	Profiles *journal.ProfileStore
}

func (c *Config) defaults() {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxN <= 0 {
		c.MaxN = 100_000
	}
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = 1024
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = c.RequestTimeout + 30*time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.ShutdownTimeout <= 0 {
		c.ShutdownTimeout = 15 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
}

// Server is the solverd HTTP service.
type Server struct {
	cfg      Config
	cache    *solveCache
	pool     *workerPool
	metrics  *serverMetrics
	inflight *inflightRegistry
	mux      *http.ServeMux
	start    time.Time

	// tracker scores live measurements against predictions (the paper's
	// 3%/9% validation bounds); estimate is the online-estimation runtime
	// closing the loop on its breaches; selfmon is the node modeling its own
	// request handling with the same loop (internal/selfmodel).
	tracker  *estimate.DeviationTracker
	estimate *estimateRuntime
	selfmon  *selfmodel.Monitor
	// admission turns selfmon's shed signal into admission decisions
	// (internal/admission); it also holds the coalesced counter and the
	// entry-lock waiter gauge the solve cache reports.
	admission *admission.Controller

	// root is the handler Run/Serve expose: the mux by default, or a
	// cluster gateway installed with Mount.
	root http.Handler

	// filler is the cluster's peer cache fill hook (SetPeerFiller).
	filler atomic.Pointer[peerFillerRef]

	// extraMetrics are additional Prometheus sections (RegisterMetrics).
	extraMu      sync.Mutex
	extraMetrics []func(w io.Writer) error

	// testHookSolveStart, when set, runs at the start of every solver
	// execution with the request context — tests use it to hold solves
	// in flight deterministically.
	testHookSolveStart func(context.Context)
}

// New builds a Server from cfg (zero value fine).
func New(cfg Config) *Server {
	cfg.defaults()
	tracker := estimate.NewDeviationTracker(cfg.Recorder)
	// Every bound breach (request-facing and self-model — both flow through
	// this shared tracker) lands in the event journal and may trigger an
	// anomaly profile capture. Both hooks are nil-safe.
	tracker.Instrument(cfg.Journal, cfg.Profiles)
	// The self-model stations the server's own worker pool: its capacity is
	// the pool's, and its deviation breaches flow into the shared tracker so
	// self-prediction traces land in the same flight recorder.
	selfCfg := cfg.Self
	selfCfg.Workers = cfg.Workers
	selfCfg.Tracker = tracker
	selfCfg.Journal = cfg.Journal
	selfmon := selfmodel.New(selfCfg)
	adm := admission.New(cfg.Admission, selfmon)
	adm.SetJournal(cfg.Journal, cfg.Profiles)
	s := &Server{
		cfg:       cfg,
		cache:     newSolveCache(cfg.CacheSize),
		pool:      newWorkerPool(cfg.Workers, selfmon),
		metrics:   newServerMetrics(),
		inflight:  newInflightRegistry(),
		mux:       http.NewServeMux(),
		start:     time.Now(),
		tracker:   tracker,
		estimate:  &estimateRuntime{keys: make(map[uint64]map[string]struct{})},
		selfmon:   selfmon,
		admission: adm,
	}
	s.mux.Handle("/v1/solve", s.instrument("solve", http.MethodPost, s.handleSolve))
	s.mux.Handle("/v1/sweep", s.instrument("sweep", http.MethodPost, s.handleSweep))
	s.mux.Handle("/v1/plan", s.instrument("plan", http.MethodPost, s.handlePlan))
	s.mux.Handle("/v1/observe", s.instrument("observe", http.MethodPost, s.handleObserve))
	s.mux.Handle("/v1/demands", s.instrument("demands", http.MethodGet, s.handleDemands))
	s.mux.Handle("/v1/whatif", s.instrument("whatif", http.MethodGet, s.handleWhatIf))
	s.mux.Handle("/v1/self", s.instrument("self", http.MethodGet, s.handleSelf))
	s.mux.Handle("/v1/status", s.instrument("status", http.MethodGet, s.handleStatus))
	s.mux.Handle("/healthz", s.instrument("healthz", http.MethodGet, s.handleHealthz))
	s.mux.Handle("/metrics", s.instrument("metrics", http.MethodGet, s.handleMetrics))
	s.mux.Handle("/debug/traces", s.instrument("traces", http.MethodGet, s.handleTraceIndex))
	s.mux.Handle("/debug/traces/", s.instrument("trace", http.MethodGet, s.handleTraceGet))
	s.mux.Handle("/debug/events", s.instrument("events", http.MethodGet, s.handleEvents))
	s.mux.Handle("/debug/profiles", s.instrument("profiles", http.MethodGet, s.handleProfileIndex))
	s.mux.Handle("/debug/profiles/", s.instrument("profile", http.MethodGet, s.handleProfileGet))
	// The trace-store families appear only with a recorder (a nil one writes
	// nothing). Deviation and estimation families are registered
	// unconditionally: the nil-safe writers expose every family (at zero)
	// before any estimator or observation exists, so scrapes see stable
	// schemas.
	s.RegisterMetrics(cfg.Recorder.WriteMetrics)
	s.RegisterMetrics(s.tracker.WriteMetrics)
	s.RegisterMetrics(s.writeEstimateMetrics)
	s.RegisterMetrics(s.selfmon.WriteMetrics)
	s.RegisterMetrics(s.admission.WriteMetrics)
	// Journal and profile-capture families are likewise unconditional: the
	// writers are nil-safe and emit the full (zeroed) schema when disabled.
	s.RegisterMetrics(cfg.Journal.WriteMetrics)
	s.RegisterMetrics(cfg.Profiles.WriteMetrics)
	// The solve cache journals evictions under LRU pressure and reports
	// requests blocked on an entry lock to the admission waiter gauge.
	s.cache.jn = cfg.Journal
	s.cache.adm = adm
	if cfg.EnablePprof {
		// Registered on the server's own mux (not the global DefaultServeMux
		// that importing net/http/pprof would populate), so profiling is
		// genuinely absent unless enabled.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.root = s.mux
	return s
}

// Handler returns the service's local HTTP handler (for tests and embedding).
// It bypasses any handler installed with Mount.
func (s *Server) Handler() http.Handler { return s.mux }

// Recorder returns the flight recorder the server records into (nil when
// trace retention is disabled). The cluster gateway uses it to serve span
// fragments to peers.
func (s *Server) Recorder() *obs.Recorder { return s.cfg.Recorder }

// Admission returns the node's admission controller (never nil). The cluster
// gateway shares it so redirects and sheds decided at the routing layer land
// in the same counters the local gate uses.
func (s *Server) Admission() *admission.Controller { return s.admission }

// Journal returns the node's event journal (nil when journaling is off).
// The cluster gateway appends its own events (breaker trips, membership,
// hedges, redirects) to the same journal and serves the fleet merge from it.
func (s *Server) Journal() *journal.Journal { return s.cfg.Journal }

// Profiles returns the node's anomaly profile store (nil when capture is
// off). The cluster gateway triggers captures on breaker trips.
func (s *Server) Profiles() *journal.ProfileStore { return s.cfg.Profiles }

// Mount replaces the handler Run/Serve expose — the cluster gateway installs
// itself here so it can intercept /v1/solve and /v1/sweep for routing while
// delegating every other path to the local mux. Call before Run/Serve.
func (s *Server) Mount(h http.Handler) {
	if h != nil {
		s.root = h
	}
}

// Run listens on cfg.Addr and serves until ctx is cancelled, then shuts down
// gracefully: the listener closes, in-flight requests drain (bounded by
// cfg.ShutdownTimeout), and Run returns nil on a clean drain.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.cfg.Logger.Info("solverd: listening",
		"addr", ln.Addr().String(), "workers", s.pool.cap(),
		"cache", s.cfg.CacheSize, "max_n", s.cfg.MaxN)
	return s.Serve(ctx, ln)
}

// Serve is Run over a caller-supplied listener (which it takes ownership of).
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.root,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       s.cfg.ReadTimeout,
		IdleTimeout:       s.cfg.IdleTimeout,
		ErrorLog:          slog.NewLogLogger(s.cfg.Logger.Handler(), slog.LevelError),
	}
	// The self-model's sampling clock runs for the server's lifetime: one
	// window closes per interval, whether or not requests arrived.
	sampleCtx, stopSampling := context.WithCancel(context.Background())
	defer stopSampling()
	go s.selfmon.Run(sampleCtx)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.cfg.Logger.Info("solverd: shutting down, draining in-flight requests")
	s.cfg.Journal.Append(journal.TypeDrain, "drain started", journal.Event{
		Attrs: []journal.Attr{{Key: "phase", Value: "start"}}})
	shCtx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownTimeout)
	defer cancel()
	err := srv.Shutdown(shCtx)
	outcome := "clean"
	if err != nil {
		outcome = err.Error()
	}
	s.cfg.Journal.Append(journal.TypeDrain, "drain finished", journal.Event{
		Attrs: []journal.Attr{
			{Key: "phase", Value: "finish"},
			{Key: "outcome", Value: outcome}}})
	if serveErr := <-errc; !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	return err
}

// requestContext derives the solve context: the server-wide cap, shortened by
// the request's own timeoutMs when given.
func (s *Server) requestContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	return s.SolveContext(r.Context(), timeoutMS)
}
