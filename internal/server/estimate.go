package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/estimate"
	"repro/internal/journal"
	"repro/internal/modelio"
	"repro/internal/promtext"
	"repro/internal/queueing"
	"repro/internal/telemetry"
)

// estimateRuntime owns the server's online-estimation state: the streaming
// estimator and closed-loop controller (created on the first /v1/observe
// that registers a model) plus the bookkeeping that ties estimate-backed
// solve-cache entries to the demand-snapshot version they were computed
// from, so a re-fit can invalidate exactly the stale ones.
type estimateRuntime struct {
	mu      sync.Mutex
	est     *estimate.Estimator
	ctl     *estimate.Controller
	modelJS []byte // canonical JSON of the registered model, for change detection
	// keys maps snapshot version → the estimate-derived solve-cache keys
	// built from it.
	keys map[uint64]map[string]struct{}

	invalidations atomic.Uint64
}

// estimator returns the current estimator/controller pair. With a model it
// creates the pair on first use, and replaces it (invalidating every
// estimate-backed cache entry) when the model's shape changed; without one
// it requires a prior registration.
func (s *Server) estimator(model *queueing.Model) (*estimate.Estimator, *estimate.Controller, error) {
	er := s.estimate
	er.mu.Lock()
	if model == nil {
		est, ctl := er.est, er.ctl
		er.mu.Unlock()
		if est == nil {
			return nil, nil, fmt.Errorf("no estimator registered: POST /v1/observe with a model first")
		}
		return est, ctl, nil
	}
	js, err := json.Marshal(model)
	if err != nil {
		er.mu.Unlock()
		return nil, nil, err
	}
	if er.est != nil && string(js) == string(er.modelJS) {
		est, ctl := er.est, er.ctl
		er.mu.Unlock()
		return est, ctl, nil
	}
	est, err := estimate.New(model, s.cfg.Estimate)
	if err != nil {
		er.mu.Unlock()
		return nil, nil, err
	}
	ctl := estimate.NewController(est, s.tracker)
	ctl.OnRefit = func(_, newVersion uint64) { s.invalidateEstimateKeys(newVersion) }
	ctl.Journal = s.cfg.Journal
	// A new model obsoletes every snapshot of the old one: forget the key
	// tracking under the lock, evict the cache entries after releasing it
	// (cache eviction never runs under er.mu — see invalidateEstimateKeys).
	victims := s.dropEstimateKeysLocked(er, 0)
	er.est, er.ctl, er.modelJS = est, ctl, js
	er.mu.Unlock()
	for _, key := range victims {
		if s.cache.remove(key) {
			er.invalidations.Add(1)
		}
	}
	return est, ctl, nil
}

// trackEstimateKey remembers that a solve-cache key was derived from the
// given snapshot version.
func (s *Server) trackEstimateKey(version uint64, key string) {
	er := s.estimate
	er.mu.Lock()
	defer er.mu.Unlock()
	m := er.keys[version]
	if m == nil {
		m = make(map[string]struct{})
		er.keys[version] = m
	}
	m[key] = struct{}{}
}

// invalidateEstimateKeys evicts every estimate-backed cache entry built from
// a snapshot other than keep. Called from the controller's OnRefit hook (so
// a breach-triggered re-fit retires the stale model's entries) and on model
// replacement (keep 0: retire everything).
func (s *Server) invalidateEstimateKeys(keep uint64) {
	er := s.estimate
	er.mu.Lock()
	victims := s.dropEstimateKeysLocked(er, keep)
	er.mu.Unlock()
	evicted := 0
	for _, key := range victims {
		if s.cache.remove(key) {
			er.invalidations.Add(1)
			evicted++
		}
	}
	if len(victims) > 0 {
		s.cfg.Journal.Append(journal.TypeCacheInvalidate,
			fmt.Sprintf("invalidated %d stale solve-cache entr%s (snapshot superseded)",
				evicted, plural(evicted, "y", "ies")),
			journal.Event{Attrs: []journal.Attr{
				{Key: "evicted", Value: strconv.Itoa(evicted)},
				{Key: "tracked", Value: strconv.Itoa(len(victims))},
				{Key: "kept_version", Value: strconv.FormatUint(keep, 10)},
			}})
	}
}

// plural picks the singular or plural suffix for n.
func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// dropEstimateKeysLocked forgets tracked keys for every version except keep
// (er.mu held) and returns them for cache eviction.
func (s *Server) dropEstimateKeysLocked(er *estimateRuntime, keep uint64) []string {
	var victims []string
	for v, m := range er.keys {
		if v == keep {
			continue
		}
		for key := range m {
			victims = append(victims, key)
		}
		delete(er.keys, v)
	}
	return victims
}

// writeEstimateMetrics renders the solverd_estimate_* families. The writers
// are nil-safe, so every family is present (with empty or zero series) from
// the very first scrape.
func (s *Server) writeEstimateMetrics(w io.Writer) error {
	er := s.estimate
	er.mu.Lock()
	est, ctl := er.est, er.ctl
	er.mu.Unlock()
	if err := est.WriteMetrics(w); err != nil {
		return err
	}
	if err := ctl.WriteMetrics(w); err != nil {
		return err
	}
	p := promtext.NewWriter(w)
	p.Counter("solverd_estimate_cache_invalidations_total", "Solve-cache entries evicted because their demand snapshot was superseded.").Uint(er.invalidations.Load())
	return p.Err()
}

// handleObserve serves POST /v1/observe: ingest station samples, score
// system-level measurements against the current snapshot (breaches trigger
// re-estimation), optionally force a fit.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req modelio.ObserveRequest
	if _, ok := s.ReadRequest(w, r, &req); !ok {
		return
	}
	if err := req.Normalize(); err != nil {
		s.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	est, ctl, err := s.estimator(req.Model)
	if err != nil {
		s.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	tr := telemetry.FromContext(r.Context())
	tr.SetAttr("samples", len(req.Samples))

	var resp modelio.ObserveResponse
	for i, ws := range req.Samples {
		k := est.StationIndex(ws.Station)
		if k < 0 {
			resp.Errors = append(resp.Errors, modelio.SampleError{
				Index: i, Error: fmt.Sprintf("unknown station %q", ws.Station)})
			continue
		}
		accepted, err := est.Observe(estimate.Sample{
			Station: k, Concurrency: ws.Concurrency,
			Utilization: ws.Utilization, Throughput: ws.Throughput,
			TimeUnixMS: ws.TimeUnixMS,
		})
		switch {
		case err != nil:
			resp.Errors = append(resp.Errors, modelio.SampleError{Index: i, Error: err.Error()})
		case accepted:
			resp.Accepted++
		default:
			resp.Rejected++
		}
	}
	for _, sys := range req.System {
		res, err := ctl.ObserveSystem(sys.Concurrency, sys.Throughput, sys.CycleTime)
		check := modelio.SystemCheck{
			Concurrency:         res.Concurrency,
			PredictedX:          res.PredictedX,
			PredictedCycle:      res.PredictedCycle,
			ThroughputDeviation: res.ThroughputDeviation,
			CycleDeviation:      res.CycleDeviation,
			ThroughputBreach:    res.ThroughputBreach,
			CycleBreach:         res.CycleBreach,
			Reestimated:         res.Reestimated,
		}
		if err != nil {
			check.Error = err.Error()
		} else if res.RefitError != "" {
			check.Error = "re-estimation failed: " + res.RefitError
			resp.FitError = res.RefitError
		}
		resp.Checks = append(resp.Checks, check)
	}
	if req.Fit {
		if _, _, err := ctl.Refit(); err != nil {
			resp.FitError = err.Error()
		}
	}
	resp.SnapshotVersion = est.Version()
	tr.SetAttr("snapshot_version", int(resp.SnapshotVersion))
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	s.WriteJSON(w, http.StatusOK, resp)
}

// handleDemands serves GET /v1/demands: the fitted curves plus estimator
// health. Before any estimator or fit exists it answers with a zero-version
// skeleton rather than an error, so `solverctl demands` is always usable.
func (s *Server) handleDemands(w http.ResponseWriter, r *http.Request) {
	var resp modelio.DemandsResponse
	er := s.estimate
	er.mu.Lock()
	est, ctl := er.est, er.ctl
	er.mu.Unlock()
	if est == nil {
		s.WriteJSON(w, http.StatusOK, resp)
		return
	}
	health, lastErr := est.Health()
	for _, h := range health {
		resp.Health = append(resp.Health, modelio.StationHealthOut{
			Name: h.Name, Accepted: h.Accepted, Rejected: h.Rejected,
			Resets: h.Resets, Cells: h.Cells, FitReady: h.FitReady,
		})
	}
	resp.LastFitError = lastErr
	resp.Fits = est.Fits()
	resp.Triggers = ctl.Triggers()
	snap := est.Snapshot()
	if snap == nil {
		s.WriteJSON(w, http.StatusOK, resp)
		return
	}
	resp.SnapshotVersion = snap.Version
	resp.FittedAtUnixMS = snap.FittedAtUnixMS
	resp.Interp = string(snap.Interp)
	resp.Model = snap.Model
	samples, err := modelio.FromDemandSamples(snap.Model, snap.DemandSamples())
	if err != nil {
		s.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp.Samples = samples
	for _, st := range snap.Stations {
		resp.Stations = append(resp.Stations, modelio.DemandCurveOut{
			Name: st.Name, Nodes: st.Nodes, Demands: st.Demands,
			Points: st.Points, Residual: st.Residual,
		})
	}
	s.WriteJSON(w, http.StatusOK, resp)
}

// defaultWhatIfMaxN bounds the saturation search when the query does not
// give its own maxN.
const defaultWhatIfMaxN = 1000

// handleWhatIf serves GET /v1/whatif: capacity planning against the live
// estimate. Query parameters:
//
//	station=NAME        the tier to probe (required)
//	util=F              per-server utilization treated as saturation (default 0.95)
//	maxN=N              search ceiling (default 1000, capped by the server's MaxN)
//	servers=NAME=COUNT  replica override, repeatable ("what if tier j had c replicas")
//
// The solve runs MVASD over the current snapshot's fitted curves through the
// regular solve cache — identical, float for float, to POSTing the
// /v1/demands model+samples to /v1/solve — and the cache entry is tied to
// the snapshot version so a re-fit invalidates it.
func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	est, _, err := s.estimator(nil)
	if err != nil {
		s.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	snap := est.Snapshot()
	if snap == nil {
		s.WriteError(w, http.StatusConflict, "no demand snapshot fitted yet: ingest samples and fit first")
		return
	}
	q := r.URL.Query()
	stationName := q.Get("station")
	model := snap.Model
	if stationName == "" {
		s.WriteError(w, http.StatusBadRequest, "missing station parameter")
		return
	}
	target := 0.95
	if v := q.Get("util"); v != "" {
		target, err = strconv.ParseFloat(v, 64)
		if err != nil || target <= 0 || target > 1 {
			s.WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad util %q (want a fraction in (0, 1])", v))
			return
		}
	}
	maxN := defaultWhatIfMaxN
	if v := q.Get("maxN"); v != "" {
		maxN, err = strconv.Atoi(v)
		if err != nil || maxN < 1 {
			s.WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad maxN %q", v))
			return
		}
	}
	if maxN > s.cfg.MaxN {
		s.WriteError(w, http.StatusBadRequest,
			fmt.Sprintf("maxN %d exceeds the server cap %d", maxN, s.cfg.MaxN))
		return
	}
	var overrides map[string]int
	for _, spec := range q["servers"] {
		name, count, ok := strings.Cut(spec, "=")
		c, err := strconv.Atoi(count)
		if !ok || err != nil || c < 1 {
			s.WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad servers override %q (want NAME=COUNT)", spec))
			return
		}
		if model.StationIndex(name) < 0 {
			s.WriteError(w, http.StatusBadRequest, fmt.Sprintf("servers override: no station %q", name))
			return
		}
		if overrides == nil {
			overrides = make(map[string]int)
		}
		overrides[name] = c
	}
	k := model.StationIndex(stationName)
	if k < 0 {
		s.WriteError(w, http.StatusBadRequest, fmt.Sprintf("no station %q", stationName))
		return
	}
	if len(overrides) > 0 {
		m := *model
		m.Stations = append([]queueing.Station(nil), model.Stations...)
		for name, c := range overrides {
			m.Stations[m.StationIndex(name)].Servers = c
		}
		model = &m
	}

	samples, err := modelio.FromDemandSamples(snap.Model, snap.DemandSamples())
	if err != nil {
		s.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	req := &modelio.SolveRequest{
		Algorithm: modelio.AlgoMVASD,
		Model:     model,
		Samples:   samples,
		Interp:    string(snap.Interp),
		MaxN:      maxN,
	}
	if err := req.Normalize(); err != nil {
		s.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	key, err := req.CacheKey()
	if err != nil {
		s.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.trackEstimateKey(snap.Version, key)
	tr := telemetry.FromContext(r.Context())
	tr.SetAttr("station", stationName)
	tr.SetAttr("snapshot_version", int(snap.Version))

	ctx, cancel := s.requestContext(r, 0)
	defer cancel()
	res, _, hit, err := s.solveWithKey(ctx, key, req)
	if err != nil {
		s.WriteError(w, statusOf(err), err.Error())
		return
	}
	resp := modelio.WhatIfResponse{
		SnapshotVersion:   snap.Version,
		Station:           stationName,
		UtilizationTarget: target,
		Servers:           overrides,
		MaxN:              maxN,
		Cached:            hit,
	}
	resp.N = maxN
	for n := 1; n <= maxN; n++ {
		if res.Util[n-1][k] >= target {
			resp.Saturated, resp.SaturationN, resp.N = true, n, n
			break
		}
	}
	resp.X, _, resp.Cycle, _ = res.At(resp.N)
	resp.Utilization = res.Util[resp.N-1][k]
	worst := -1.0
	for i, u := range res.Util[resp.N-1] {
		if u > worst {
			worst, resp.Bottleneck = u, res.StationNames[i]
		}
	}
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	s.WriteJSON(w, http.StatusOK, resp)
}
