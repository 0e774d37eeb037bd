package server

import (
	"io"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/promtext"
)

// serverMetrics is the service's observability state, rendered on /metrics in
// the Prometheus text exposition format: per-handler request counters and
// latency histograms (promtext.Histogram), solve-cache hit/miss counters,
// and an in-flight solve gauge.
type serverMetrics struct {
	mu       sync.Mutex
	requests map[reqKey]uint64
	latency  map[string]*promtext.Histogram

	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	inFlight    atomic.Int64

	// solveRuns counts solver executions (cold runs and extensions alike);
	// solveExtends counts the subset that resumed a cached trajectory
	// instead of starting from population 1.
	solveRuns    atomic.Uint64
	solveExtends atomic.Uint64

	// peerFillRestores counts cold solves warm-started from a trajectory
	// fetched off a cluster peer (each such run also counts as an extend).
	peerFillRestores atomic.Uint64

	// stepPops counts committed population steps across every solver run —
	// the solver-side unit of work (a 1500-population cold solve adds 1500).
	// Each run adds its count when it returns, cancelled runs included.
	stepPops atomic.Uint64

	// fpHist records MVASD demand/throughput fixed-point iteration counts;
	// fpFailures counts the resolutions that hit the iteration cap.
	fpMu       sync.Mutex
	fpHist     *promtext.Histogram
	fpFailures atomic.Uint64

	// goVersion/revision label the solverd_build_info gauge.
	goVersion, revision string
}

type reqKey struct {
	handler string
	code    int
}

func newServerMetrics() *serverMetrics {
	fpHist, _ := promtext.NewHistogram(promtext.IterationBounds()...)
	goVersion, revision := buildInfo()
	return &serverMetrics{
		requests:  make(map[reqKey]uint64),
		latency:   make(map[string]*promtext.Histogram),
		fpHist:    fpHist,
		goVersion: goVersion,
		revision:  revision,
	}
}

// observeFixedPoint records one inner fixed-point resolution.
func (m *serverMetrics) observeFixedPoint(iters int, converged bool) {
	m.fpMu.Lock()
	m.fpHist.Observe(float64(iters))
	m.fpMu.Unlock()
	if !converged {
		m.fpFailures.Add(1)
	}
}

// observeRequest records one finished HTTP request. traceID (may be empty)
// becomes the latency bucket's exemplar, linking a histogram spike straight
// to the request's stitched trace.
func (m *serverMetrics) observeRequest(handler string, code int, seconds float64, traceID string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[reqKey{handler, code}]++
	h, ok := m.latency[handler]
	if !ok {
		h, _ = promtext.NewHistogram(promtext.LatencyBounds()...)
		m.latency[handler] = h
	}
	h.ObserveWithExemplar(seconds, traceID, float64(time.Now().UnixMilli())/1000)
}

// solveStarted/solveFinished bracket one solver run for the in-flight gauge.
func (m *serverMetrics) solveStarted()  { m.inFlight.Add(1) }
func (m *serverMetrics) solveFinished() { m.inFlight.Add(-1) }

// writePrometheus renders every metric. cacheEntries and solves are sampled
// by the caller (the cache and the in-flight registry own their own locks).
func (m *serverMetrics) writePrometheus(w io.Writer, cacheEntries int, solves []inflightSnapshot) error {
	m.mu.Lock()
	defer m.mu.Unlock()

	p := promtext.NewWriter(w)
	p.Counter("solverd_requests_total", "HTTP requests served, by handler and status code.")
	keys := make([]reqKey, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].handler != keys[j].handler {
			return keys[i].handler < keys[j].handler
		}
		return keys[i].code < keys[j].code
	})
	for _, k := range keys {
		p.Uint(m.requests[k], "handler", k.handler, "code", strconv.Itoa(k.code))
	}

	p.Histogram("solverd_request_duration_seconds", "Request latency, by handler.")
	handlers := make([]string, 0, len(m.latency))
	for h := range m.latency {
		handlers = append(handlers, h)
	}
	sort.Strings(handlers)
	for _, h := range handlers {
		p.Buckets(m.latency[h], "handler", h)
	}

	hits, misses := m.cacheHits.Load(), m.cacheMisses.Load()
	ratio := 0.0
	if total := hits + misses; total > 0 {
		ratio = float64(hits) / float64(total)
	}
	p.Counter("solverd_cache_hits_total", "Solves served from the cache or a shared in-flight run.").Uint(hits)
	p.Counter("solverd_cache_misses_total", "Solves that ran the solver.").Uint(misses)
	p.Gauge("solverd_cache_hit_ratio", "Hits over lookups since start (0 when no lookups).").Float(ratio)
	p.Gauge("solverd_cache_entries", "Results currently cached.").Int(cacheEntries)
	p.Counter("solverd_solves_total", "Solver executions (cold runs plus extensions).").Uint(m.solveRuns.Load())
	p.Counter("solverd_solve_extends_total", "Solver executions that resumed a cached trajectory.").Uint(m.solveExtends.Load())
	p.Counter("solverd_peer_fill_restores_total", "Cold solves warm-started from a cluster peer's cached trajectory.").Uint(m.peerFillRestores.Load())
	p.Gauge("solverd_in_flight_solves", "Solver runs executing right now.").Int(int(m.inFlight.Load()))
	p.Counter("solverd_solve_step_populations_total", "Population steps across all solver runs, added when each run returns (cancelled runs included); solverd_solve_progress shows live progress.").Uint(m.stepPops.Load())

	p.Histogram("solverd_mvasd_fixedpoint_iterations", "Iterations per MVASD demand/throughput fixed-point resolution.")
	m.fpMu.Lock()
	p.Buckets(m.fpHist)
	m.fpMu.Unlock()
	p.Counter("solverd_mvasd_fixedpoint_failures_total", "Fixed-point resolutions that hit the iteration cap without converging.").Uint(m.fpFailures.Load())

	p.Gauge("solverd_solve_progress", "Current population of each in-flight solver run.")
	for _, f := range solves {
		p.Int(int(f.CurrentN), "id", f.ID, "algorithm", f.Algorithm, "target", strconv.Itoa(f.TargetN))
	}

	p.Gauge("solverd_build_info", "Build metadata; always 1.").Int(1, "go_version", m.goVersion, "revision", m.revision)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.Gauge("solverd_goroutines", "Goroutines currently running.").Int(runtime.NumGoroutine())
	p.Gauge("solverd_heap_inuse_bytes", "Bytes in in-use heap spans.").Uint(ms.HeapInuse)
	return p.Err()
}
