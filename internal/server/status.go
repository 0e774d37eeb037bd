package server

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
)

// inflightSolve is one solver run currently executing. cur is advanced by the
// solver's OnStep hook from the solving goroutine while /v1/status and
// /metrics read it, hence the atomic.
type inflightSolve struct {
	seq       uint64
	id        string // trace ID of the request that started the run
	algorithm string
	fromN     int // population the run resumed from (0 = cold solve)
	targetN   int
	started   time.Time
	cur       atomic.Int64
}

// inflightSnapshot is the JSON/metrics view of one in-flight solve.
type inflightSnapshot struct {
	ID        string  `json:"id"`
	Algorithm string  `json:"algorithm"`
	FromN     int     `json:"fromN"`
	CurrentN  int64   `json:"currentN"`
	TargetN   int     `json:"targetN"`
	ElapsedMS float64 `json:"elapsedMs"`
}

// inflightRegistry tracks solver runs between start and finish so their
// progress can be observed mid-flight.
type inflightRegistry struct {
	mu  sync.Mutex
	seq uint64
	m   map[uint64]*inflightSolve
}

func newInflightRegistry() *inflightRegistry {
	return &inflightRegistry{m: make(map[uint64]*inflightSolve)}
}

func (r *inflightRegistry) add(id, algorithm string, fromN, targetN int) *inflightSolve {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	f := &inflightSolve{
		seq: r.seq, id: id, algorithm: algorithm,
		fromN: fromN, targetN: targetN, started: time.Now(),
	}
	f.cur.Store(int64(fromN))
	r.m[f.seq] = f
	return f
}

func (r *inflightRegistry) remove(f *inflightSolve) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.m, f.seq)
}

// snapshot returns the in-flight solves in start order.
func (r *inflightRegistry) snapshot() []inflightSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	flights := make([]*inflightSolve, 0, len(r.m))
	for _, f := range r.m {
		flights = append(flights, f)
	}
	sort.Slice(flights, func(i, j int) bool { return flights[i].seq < flights[j].seq })
	out := make([]inflightSnapshot, len(flights))
	for i, f := range flights {
		out[i] = inflightSnapshot{
			ID:        f.id,
			Algorithm: f.algorithm,
			FromN:     f.fromN,
			CurrentN:  f.cur.Load(),
			TargetN:   f.targetN,
			ElapsedMS: float64(time.Since(f.started)) / float64(time.Millisecond),
		}
	}
	return out
}

// BuildInfo reports the running binary's Go version and VCS revision — the
// labels of the solverd_build_info gauge and the solverd -version output.
func BuildInfo() (goVersion, revision string) { return buildInfo() }

// buildInfo reports the running binary's Go version and VCS revision
// ("unknown" when the build carries no VCS stamp, e.g. `go test` binaries).
func buildInfo() (goVersion, revision string) {
	goVersion, revision = runtime.Version(), "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.GoVersion != "" {
			goVersion = bi.GoVersion
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				revision = s.Value
			}
		}
	}
	return goVersion, revision
}

// statusResponse is the GET /v1/status body. Journal and Profiles report
// the event journal's occupancy (events stored/dropped per type) and the
// anomaly capture store's health; both are omitted when the subsystem is
// disabled so pre-journal consumers see an unchanged body.
type statusResponse struct {
	Service       string                `json:"service"`
	GoVersion     string                `json:"goVersion"`
	Revision      string                `json:"revision"`
	UptimeSeconds float64               `json:"uptimeSeconds"`
	Workers       int                   `json:"workers"`
	CacheCapacity int                   `json:"cacheCapacity"`
	MaxN          int                   `json:"maxN"`
	Cache         []cacheEntrySnapshot  `json:"cache"`
	InFlight      []inflightSnapshot    `json:"inFlight"`
	Journal       *journal.Stats        `json:"journal,omitempty"`
	Profiles      *journal.ProfileStats `json:"profiles,omitempty"`
}

// handleStatus serves GET /v1/status: uptime and build info, the solve
// cache's entries (most recently used first) and every in-flight solver run
// with its current population — the human-readable counterpart of the
// solverd_solve_progress metric.
func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	goVersion, revision := buildInfo()
	resp := statusResponse{
		Service:       "solverd",
		GoVersion:     goVersion,
		Revision:      revision,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       s.pool.cap(),
		CacheCapacity: s.cfg.CacheSize,
		MaxN:          s.cfg.MaxN,
		Cache:         s.cache.entries(),
		InFlight:      s.inflight.snapshot(),
	}
	if s.cfg.Journal.Enabled() {
		js := s.cfg.Journal.Stats()
		resp.Journal = &js
	}
	if s.cfg.Profiles.Enabled() {
		ps := s.cfg.Profiles.Stats()
		resp.Profiles = &ps
	}
	s.WriteJSON(w, http.StatusOK, resp)
}
