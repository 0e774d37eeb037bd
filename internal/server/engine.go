package server

// This file is the service's exported solve engine: the request-independent
// core behind the /v1/solve and /v1/sweep handlers, callable in-process by
// the cluster gateway (internal/cluster) for locally-owned keys, plus the
// cache export / peer-fill surface that lets a cluster move cached
// trajectories between nodes instead of recomputing them.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/modelio"
	"repro/internal/queueing"
)

// ErrLimit wraps violations of the server's configured request caps (MaxN,
// MaxSweepPoints); it maps to 400 Bad Request.
var ErrLimit = errors.New("server: request exceeds configured limit")

// PeerFiller supplies cold solves with trajectories cached elsewhere in a
// cluster. Fill is consulted once per cold cache entry, before the solver
// runs: a hit returns a trajectory prefix plus its recursion checkpoint
// (typically fetched from the key's owner or a replica), which the server
// restores into the fresh solver so the local run extends instead of
// starting over. ok=false means "solve cold"; implementations should bound
// their own network time (the solve context is threaded through).
type PeerFiller interface {
	Fill(ctx context.Context, key string, req *modelio.SolveRequest) (traj *core.Result, cp *core.Checkpoint, ok bool)
}

// peerFillerRef boxes the interface for atomic swapping.
type peerFillerRef struct{ f PeerFiller }

// SetPeerFiller installs (or with nil clears) the cluster's peer cache fill
// hook. Safe to call while serving.
func (s *Server) SetPeerFiller(f PeerFiller) {
	if f == nil {
		s.filler.Store(nil)
		return
	}
	s.filler.Store(&peerFillerRef{f: f})
}

// peerFiller returns the installed hook, or nil.
func (s *Server) peerFiller() PeerFiller {
	if ref := s.filler.Load(); ref != nil {
		return ref.f
	}
	return nil
}

// SolveContext derives a solve context from ctx: the server-wide request
// timeout, shortened (never extended) by the request's own timeoutMs.
func (s *Server) SolveContext(ctx context.Context, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.cfg.RequestTimeout
	if timeoutMS > 0 {
		if t := time.Duration(timeoutMS) * time.Millisecond; t < d {
			d = t
		}
	}
	return context.WithTimeout(ctx, d)
}

// checkMaxN enforces the configured population cap. The cap protects the
// node's memory — a dense trajectory stores maxN rows of per-station
// matrices — so a decimated request is capped on the rows it will *store*
// (maxN/stride + 1), not the populations it advances through: that is what
// lets a default-configured node run million-user deep solves. CPU stays
// bounded by the request deadline either way.
func (s *Server) checkMaxN(maxN, stride int) error {
	rows := maxN
	if stride > 1 {
		rows = maxN/stride + 1
	}
	if rows > s.cfg.MaxN {
		return fmt.Errorf("%w: maxN %d stores %d rows, exceeding the server cap %d (raise decimate?)",
			ErrLimit, maxN, rows, s.cfg.MaxN)
	}
	return nil
}

// Solve is SolveKeyed under req.CacheKey().
func (s *Server) Solve(ctx context.Context, req *modelio.SolveRequest) (*modelio.SolveResponse, error) {
	key, err := req.CacheKey()
	if err != nil {
		return nil, err
	}
	return s.SolveKeyed(ctx, key, req)
}

// SolveKeyed answers one normalized solve request through the cache,
// in-flight dedup and worker pool — the engine behind POST /v1/solve. key
// must be req.CacheKey(): callers that already hashed the request (the
// handler, the cluster gateway's routing) pass their key so a node hashes
// each body once. The caller must have called req.Normalize and should
// bound ctx with SolveContext.
func (s *Server) SolveKeyed(ctx context.Context, key string, req *modelio.SolveRequest) (*modelio.SolveResponse, error) {
	if err := s.checkMaxN(req.MaxN, req.Decimate); err != nil {
		return nil, err
	}
	start := time.Now()
	res, e, hit, err := s.solveWithKey(ctx, key, req)
	if err != nil {
		return nil, err
	}
	traj := modelio.NewTrajectory(res, req.Every)
	if res.IndexOf(req.MaxN) < 0 {
		// A decimated cache entry solved deeper than this request stores no
		// row at exactly maxN; re-derive it from the state rebuilt at the
		// nearest stored row (≤ stride dense steps) so the response's final
		// row is the population the client asked for.
		rows, err := res.Recover([]int{req.MaxN}, recoverFactory(req))
		if err != nil {
			return nil, err
		}
		traj.AppendRecovered(rows[0])
	} else if e != nil && res.Stride() == 1 {
		// A reply from a dense entry's hit, coalesced wait or extend copies
		// its rows' text from the entry's memo at the reply's stride;
		// AppendJSON formats only the off-stride final population.
		traj.SetRowText(e.rowText(req.Every, req.MaxN))
	}
	if !traj.Finite() {
		return nil, queueing.ErrNotFinite
	}
	return &modelio.SolveResponse{
		Cached:     hit,
		ElapsedMS:  float64(time.Since(start)) / float64(time.Millisecond),
		Trajectory: traj,
	}, nil
}

// SolveChunk solves populations (fromN, toN] of req's model as one chunk of
// a distributed deep solve: a fresh solver — decimated per req.Decimate —
// is seeded from the shipped checkpoint state (nil for the cold first
// chunk), run under the worker pool, and returns its stored rows plus the
// recursion state at toN for the next chunk. Chunks are transient by
// design: they bypass the solve cache (a mid-range fragment can't serve
// prefix hits) and never hold the prefix before fromN.
func (s *Server) SolveChunk(ctx context.Context, req *modelio.SolveRequest, fromN, toN int, cps *modelio.CheckpointState) (*core.Result, *modelio.CheckpointState, error) {
	if fromN < 0 || toN <= fromN {
		return nil, nil, fmt.Errorf("%w: chunk range (%d, %d]", core.ErrBadRun, fromN, toN)
	}
	if err := s.checkMaxN(toN-fromN, req.Decimate); err != nil {
		return nil, nil, err
	}
	sol, err := newSolverFor(req)
	if err != nil {
		return nil, nil, err
	}
	defer sol.Release()
	if fromN > 0 {
		if cps == nil {
			return nil, nil, fmt.Errorf("%w: chunk at fromN %d needs a checkpoint", core.ErrBadRun, fromN)
		}
		if err := sol.ResumeFrom(cps.Checkpoint(sol.Result().Algorithm, fromN)); err != nil {
			return nil, nil, err
		}
	}
	if err := s.pool.acquire(ctx); err != nil {
		return nil, nil, err
	}
	defer s.pool.release()
	s.metrics.solveStarted()
	defer s.metrics.solveFinished()
	s.metrics.solveRuns.Add(1)
	sol.Reserve(toN)
	if err := sol.RunContext(ctx, toN); err != nil {
		return nil, nil, err
	}
	cp, err := sol.Checkpoint()
	if err != nil {
		return nil, nil, err
	}
	out := modelio.NewCheckpointState(cp)
	// The Result outlives Release (only stepper scratch is pooled).
	return sol.Result(), &out, nil
}

// Sweep answers one normalized sweep on this node — the engine behind
// POST /v1/sweep: SweepGroups with every group answered by SweepGroup.
func (s *Server) Sweep(ctx context.Context, req *modelio.SweepRequest) (*modelio.SweepResponse, error) {
	return s.SweepGroups(ctx, req, func(ctx context.Context, p modelio.GridPoint, key string) modelio.SweepPointResult {
		return s.SweepGroup(ctx, req, p, key)
	})
}

// SweepGroup answers one planned group of req on this node: one cached
// solve of PointRequest(p) at the sweep's largest population under key (the
// group's GroupKey), its rows extracted once for every member point.
func (s *Server) SweepGroup(ctx context.Context, req *modelio.SweepRequest, p modelio.GridPoint, key string) modelio.SweepPointResult {
	pointReq := req.PointRequest(p)
	res, _, hit, err := s.solveWithKey(ctx, key, pointReq)
	if err != nil {
		return modelio.SweepPointResult{Error: err.Error()}
	}
	return pointResult(res, pointReq, req.Populations, hit)
}

// SweepGroups runs a normalized sweep with solve answering each group: it
// checks the sweep against the server's caps (MaxN, MaxSweepPoints), expands
// and plans the grid — points resolving to the same model form one group —
// hashes the sweep's shared key material once, and calls solve once per
// group with the group's representative point and its GroupKey, keeping at
// most Workers groups in flight. A key depends only on the group's resolved
// model, so every node derives the same key for it. Each answer is copied
// to every member under the member's own grid point, in Expand order. Sweep
// passes the local cached solve; the cluster gateway passes its owner
// routing. A request-wide deadline fails the whole sweep: the client asked
// for the grid, not a fragment of it.
func (s *Server) SweepGroups(ctx context.Context, req *modelio.SweepRequest,
	solve func(ctx context.Context, p modelio.GridPoint, key string) modelio.SweepPointResult) (*modelio.SweepResponse, error) {
	start := time.Now()
	if err := s.checkMaxN(req.MaxN, req.Decimate); err != nil {
		return nil, err
	}
	points, err := req.Expand(s.cfg.MaxSweepPoints)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrLimit, err)
	}
	keyBase, err := req.KeyBase()
	if err != nil {
		return nil, err
	}
	groups := req.PlanSweep(points)
	results := make([]modelio.SweepPointResult, len(points))
	// Bounded like the worker pool: an in-flight routed group can hold a
	// full peer response body, so a goroutine per group would let one big
	// sweep spike a coordinator's memory without limit.
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(s.pool.cap(), len(groups)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(groups) && ctx.Err() == nil; i = int(next.Add(1)) - 1 {
				p := groups[i].Point
				res := solve(ctx, p, keyBase.GroupKey(p))
				for _, m := range groups[i].Members {
					res.Point = points[m]
					results[m] = res
				}
			}
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	return &modelio.SweepResponse{
		GridSize:  len(points),
		Points:    results,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	}, nil
}

// ExportCached returns the cached trajectory prefix and recursion checkpoint
// behind one solve-cache key, for peer cache fill. ok=false when the key is
// unknown, still cold, or its entry lock cannot be acquired before ctx ends
// (an in-flight first solve); exporting never blocks a running solve.
func (s *Server) ExportCached(ctx context.Context, key string) (*core.Result, *core.Checkpoint, bool) {
	return s.cache.export(ctx, key)
}

// RegisterMetrics adds a Prometheus-text section rendered after the server's
// own metrics on /metrics (used by the cluster gateway). Safe to call while
// serving.
func (s *Server) RegisterMetrics(write func(w io.Writer) error) {
	s.extraMu.Lock()
	defer s.extraMu.Unlock()
	s.extraMetrics = append(s.extraMetrics, write)
}
