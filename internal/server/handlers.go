package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/modelio"
	"repro/internal/queueing"
	"repro/internal/telemetry"
)

// maxBodyBytes caps request bodies; demand-sample files are small, so 8 MiB
// is generous.
const maxBodyBytes = 8 << 20

// ReadRequest reads r's whole body, capped at 8 MiB, and strictly decodes it
// into v: a *modelio.SolveRequest through modelio.DecodeSolveRequest, any
// other type through modelio.DecodeStrict. On failure it writes the error
// reply — 413 for a body over the cap, 400 otherwise — and returns ok=false.
// The body is returned for callers that forward it verbatim.
func (s *Server) ReadRequest(w http.ResponseWriter, r *http.Request, v any) (body []byte, ok bool) {
	body, err := readBody(w, r)
	if err != nil {
		err = fmt.Errorf("decoding request: %w", err)
	} else if req, solve := v.(*modelio.SolveRequest); solve {
		err = modelio.DecodeSolveRequest(body, req)
	} else {
		err = modelio.DecodeStrict(body, v)
	}
	if err != nil {
		code := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			code = http.StatusRequestEntityTooLarge
		}
		s.WriteError(w, code, err.Error())
		return nil, false
	}
	return body, true
}

// readBody reads the request body under http.MaxBytesReader into one buffer
// sized from Content-Length (one byte over, so the final read sees EOF
// without growing it).
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	size := int64(512)
	if r.ContentLength >= 0 {
		size = min(r.ContentLength, maxBodyBytes) + 1
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	b := make([]byte, 0, size)
	for {
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// StatusOf is the exported error→status mapping for callers serving engine
// results over HTTP outside this package (the cluster gateway).
func StatusOf(err error) int { return statusOf(err) }

// statusOf maps a solve error to an HTTP status: deadline/cancellation →
// 504, invalid input the validators missed (or a configured-cap violation)
// → 400, anything else → 500.
func statusOf(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, core.ErrBadRun), errors.Is(err, queueing.ErrInvalidModel),
		errors.Is(err, core.ErrDemandModel), errors.Is(err, ErrLimit):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// newSolverFor builds the resumable solver matching a normalized request,
// decimated per req.Decimate. The same factory seeds Result.Recover, so
// recovered rows come from the exact solver configuration that produced the
// decimated trajectory.
func newSolverFor(req *modelio.SolveRequest) (*core.Solver, error) {
	sol, err := newDenseSolverFor(req)
	if err != nil {
		return nil, err
	}
	if req.Decimate > 1 {
		if err := sol.Decimate(req.Decimate); err != nil {
			sol.Release()
			return nil, err
		}
	}
	return sol, nil
}

func newDenseSolverFor(req *modelio.SolveRequest) (*core.Solver, error) {
	switch req.Algorithm {
	case modelio.AlgoExact:
		return core.NewExactMVASolver(req.Model)
	case modelio.AlgoSchweitzer:
		return core.NewSchweitzerSolver(req.Model, core.SchweitzerOptions{})
	case modelio.AlgoMultiServer:
		return core.NewMultiServerSolver(req.Model, core.MultiServerOptions{TraceStation: -1})
	case modelio.AlgoMVASD, modelio.AlgoMVASDSingleServer:
		dm, err := req.DemandModel()
		if err != nil {
			return nil, err
		}
		if req.Algorithm == modelio.AlgoMVASD {
			return core.NewMVASDSolver(req.Model, dm, core.MVASDOptions{})
		}
		return core.NewMVASDSingleServerSolver(req.Model, dm, core.MVASDOptions{})
	default:
		return nil, fmt.Errorf("unknown algorithm %q", req.Algorithm)
	}
}

// recoverFactory adapts a request into Result.Recover's fresh-solver hook.
// Recovery re-extends densely from a stored row's state, so the sub-solver is
// built without the request's decimation.
func recoverFactory(req *modelio.SolveRequest) func() (*core.Solver, error) {
	return func() (*core.Solver, error) { return newDenseSolverFor(req) }
}

// solveWithKey runs req through the prefix cache and the worker pool under
// the caller's cache key (solves hash the request once per node; sweeps
// derive per-group keys from a shared base instead of re-hashing the
// model), keeping the cache hit/miss counters and in-flight gauge. Every
// answer but a first solve also returns the cache entry that gave it (nil
// for a miss). The worker pool is acquired only inside the run, so requests
// answered from a cached prefix never queue behind in-flight solves.
//
// The request's trace (when present) gets a "cache" span covering the lookup
// and any wait for the entry lock or the worker pool, a "solve" span
// covering the solver run, and a "cache" attribute with the outcome
// (hit/coalesced/extend/miss). The solver is instrumented for the run's
// duration with hooks feeding the step counter, the in-flight progress
// registry and — for MVASD algorithms — the fixed-point iteration histogram.
func (s *Server) solveWithKey(ctx context.Context, key string, req *modelio.SolveRequest) (*core.Result, *cacheEntry, bool, error) {
	tr := telemetry.FromContext(ctx)
	cacheSpan := tr.StartSpan("cache")
	res, e, outcome, err := s.cache.do(ctx, key, req.MaxN,
		func() (*core.Solver, error) {
			sol, err := newSolverFor(req)
			if err != nil {
				return nil, err
			}
			// Cold entry: ask the cluster (when clustered) for the key's
			// trajectory before solving from scratch. A successful restore
			// turns this run into an extend from the peer's population.
			// Decimated solves skip the fill — peers refuse to export sparse
			// entries (see solveCache.export), so the lookup cannot hit.
			if f := s.peerFiller(); f != nil && req.Decimate <= 1 {
				if traj, cp, ok := f.Fill(ctx, key, req); ok {
					if rerr := sol.Restore(traj, cp); rerr != nil {
						s.cfg.Logger.Warn("solverd: peer fill restore failed", "key", key, "error", rerr)
					} else {
						s.metrics.peerFillRestores.Add(1)
						tr.SetAttr("peer_fill", true)
					}
				}
			}
			return sol, nil
		},
		func(ctx context.Context, sol *core.Solver, maxN int) error {
			if err := s.pool.acquire(ctx); err != nil {
				return err
			}
			defer s.pool.release()
			cacheSpan.End() // cache phase over: lookup + pool wait
			s.metrics.solveStarted()
			defer s.metrics.solveFinished()
			s.metrics.solveRuns.Add(1)
			kind := cacheMiss
			if sol.N() > 0 {
				s.metrics.solveExtends.Add(1)
				kind = cacheExtend
			}
			tr.SetAttr("cache", cacheOutcomeAttr[kind])

			span := tr.StartSpan("solve")
			defer span.End()
			alg := sol.Result().Algorithm
			span.SetAttr("algorithm", alg)
			span.SetAttr("from_n", sol.N())
			span.SetAttr("to_n", maxN)

			fl := s.inflight.add(tr.ID(), alg, sol.N(), maxN)
			defer s.inflight.remove(fl)
			// steps/fpIters are plain ints: hooks fire synchronously on
			// this goroutine, and anything heavier would cost the step
			// path its 0 allocs/op guarantee. The shared step counter is
			// bumped once per run, not per population: concurrent solves
			// would otherwise bounce its cache line on every step. For the
			// same reason the in-flight progress is published every
			// progressEvery populations and at the target, not every step.
			var steps, fpIters int
			hooks := &core.SolveHooks{OnStep: func(n int, _ float64) {
				steps++
				if n%progressEvery == 0 || n == maxN {
					fl.cur.Store(int64(n))
				}
			}}
			if strings.HasPrefix(alg, "mvasd") {
				hooks.OnFixedPoint = func(_, iters int, _ float64, converged bool) {
					fpIters += iters
					s.metrics.observeFixedPoint(iters, converged)
				}
			}
			sol.SetHooks(hooks)
			defer sol.SetHooks(nil)
			// After the in-flight registration so tests that block here can
			// observe the run on /v1/status and the progress gauge.
			if s.testHookSolveStart != nil {
				s.testHookSolveStart(ctx)
			}
			runErr := sol.RunContext(ctx, maxN)
			s.metrics.stepPops.Add(uint64(steps))
			span.SetAttr("steps", steps)
			if fpIters > 0 {
				span.SetAttr("fp_iters", fpIters)
			}
			if runErr != nil {
				span.SetAttr("error", runErr.Error())
			}
			return runErr
		})
	cacheSpan.End() // idempotent: closes the span when no run ended it
	if err != nil {
		return nil, nil, false, err
	}
	if !outcome.cached() {
		s.metrics.cacheMisses.Add(1)
		return res, e, false, nil
	}
	s.metrics.cacheHits.Add(1)
	if outcome == cacheCoalesced {
		s.admission.RecordCoalesced()
	}
	tr.SetAttr("cache", cacheOutcomeAttr[outcome])
	return res, e, true, nil
}

// progressEvery is the population stride at which a run publishes its
// progress to /v1/status and solverd_solve_progress.
const progressEvery = 64

// handleSolve serves POST /v1/solve: decode, normalize, then the exported
// Solve engine under the request-derived context.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req modelio.SolveRequest
	if _, ok := s.ReadRequest(w, r, &req); !ok {
		return
	}
	if err := req.Normalize(); err != nil {
		s.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	telemetry.FromContext(r.Context()).SetAttr("algorithm", req.Algorithm)
	key, err := req.CacheKey()
	if err != nil {
		s.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	resp, err := s.SolveKeyed(ctx, key, &req)
	if err != nil {
		s.WriteError(w, statusOf(err), err.Error())
		return
	}
	s.WriteJSON(w, http.StatusOK, resp)
}

// handleSweep serves POST /v1/sweep through the exported Sweep engine; see
// SweepGroups for the grid planning and group fan-out.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req modelio.SweepRequest
	if _, ok := s.ReadRequest(w, r, &req); !ok {
		return
	}
	if err := req.Normalize(); err != nil {
		s.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	resp, err := s.Sweep(ctx, &req)
	if err != nil {
		s.WriteError(w, statusOf(err), err.Error())
		return
	}
	s.WriteJSON(w, http.StatusOK, resp)
}

// pointResult extracts one planned group's rows from its trajectory (the
// engine fills in each member's Point). Populations a decimated trajectory
// skipped are re-derived from the stored rows' states (Result.Recover), so a
// sweep over a decimated solve reports exactly the rows a dense solve would.
func pointResult(res *core.Result, req *modelio.SolveRequest, populations []int, hit bool) modelio.SweepPointResult {
	out := modelio.SweepPointResult{Cached: hit}
	var missing []int
	for _, n := range populations {
		if res.IndexOf(n) < 0 {
			missing = append(missing, n)
		}
	}
	recovered := make(map[int]core.RecoveredRow, len(missing))
	if len(missing) > 0 {
		sort.Ints(missing)
		rows, err := res.Recover(missing, recoverFactory(req))
		if err != nil {
			out.Error = err.Error()
			return out
		}
		for _, row := range rows {
			recovered[row.N] = row
		}
	}
	// utilAt derives a stored row's utilizations into buf, so a row of up
	// to 16 stations (VINS and JPetStore have 12) allocates nothing. Each
	// call overwrites the row the previous one returned.
	var buf [16]float64
	utilAt := func(n int) []float64 {
		if i := res.IndexOf(n); i >= 0 {
			return res.AppendUtilRow(buf[:0], i)
		}
		return recovered[n].Util
	}
	// Bottleneck: the highest-utilization station at the largest requested
	// population (the trajectory's final row for dense sweeps).
	maxPop := 0
	for _, n := range populations {
		if n > maxPop {
			maxPop = n
		}
	}
	bottleneck, worst := "", -1.0
	for k, u := range utilAt(maxPop) {
		if u > worst {
			worst, bottleneck = u, res.StationNames[k]
		}
	}
	out.Bottleneck = bottleneck
	for _, n := range populations {
		var x, resp, cycle float64
		if i := res.IndexOf(n); i >= 0 {
			x, resp, cycle = res.X[i], res.R[i], res.Cycle[i]
		} else {
			row := recovered[n]
			x, resp, cycle = row.X, row.R, row.Cycle
		}
		bu := 0.0
		for _, u := range utilAt(n) {
			if u > bu {
				bu = u
			}
		}
		if x-x != 0 || resp-resp != 0 || cycle-cycle != 0 || bu-bu != 0 { // NaN or ±Inf
			// Sampled demands can still sum to zero with the think time:
			// JSON cannot carry the ±Inf, so the point fails as /v1/solve does.
			return modelio.SweepPointResult{Error: queueing.ErrNotFinite.Error()}
		}
		out.Rows = append(out.Rows, modelio.SweepRow{
			N: n, X: x, R: resp, Cycle: cycle, BottleneckUtil: bu,
		})
	}
	return out
}

// handlePlan serves POST /v1/plan.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req modelio.PlanRequest
	if _, ok := s.ReadRequest(w, r, &req); !ok {
		return
	}
	if err := req.Normalize(); err != nil {
		s.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Users > s.cfg.MaxN || req.Limit > s.cfg.MaxN {
		s.WriteError(w, http.StatusBadRequest,
			fmt.Sprintf("users/limit exceed the server cap %d", s.cfg.MaxN))
		return
	}
	plan, err := req.Plan()
	if err != nil {
		s.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	if err := s.pool.acquire(ctx); err != nil {
		s.WriteError(w, statusOf(err), err.Error())
		return
	}
	defer s.pool.release()
	s.metrics.solveStarted()
	defer s.metrics.solveFinished()
	if s.testHookSolveStart != nil {
		s.testHookSolveStart(ctx)
	}
	planSpan := telemetry.FromContext(r.Context()).StartSpan("plan")
	defer planSpan.End()

	sla := req.SLA.ToSLA()
	violations, err := plan.CheckContext(ctx, req.Users, sla)
	if err != nil {
		s.WriteError(w, statusOf(err), err.Error())
		return
	}
	resp := modelio.PlanResponse{Users: req.Users, Compliant: len(violations) == 0}
	for _, v := range violations {
		resp.Violations = append(resp.Violations, modelio.ViolationOut{
			Clause: v.Clause, Have: v.Have, Want: v.Want,
		})
	}
	if req.Limit > 0 {
		maxUsers, err := plan.MaxUsersUnderSLAContext(ctx, req.Limit, sla)
		if err != nil {
			s.WriteError(w, statusOf(err), err.Error())
			return
		}
		resp.MaxUsers = &maxUsers
	}
	planSpan.End() // before WriteJSON so the span makes the Server-Timing header
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	s.WriteJSON(w, http.StatusOK, resp)
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics serves GET /metrics in the Prometheus text format: the
// server's own series first, then any registered extra sections (the cluster
// gateway's ring/peer/forwarding series).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.writePrometheus(w, s.cache.len(), s.inflight.snapshot()); err != nil {
		s.cfg.Logger.Error("solverd: writing metrics", "error", err)
		return
	}
	s.extraMu.Lock()
	extras := make([]func(w io.Writer) error, len(s.extraMetrics))
	copy(extras, s.extraMetrics)
	s.extraMu.Unlock()
	for _, write := range extras {
		if err := write(w); err != nil {
			s.cfg.Logger.Error("solverd: writing extra metrics", "error", err)
			return
		}
	}
}
