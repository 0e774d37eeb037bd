package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/modelio"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	cachedTruePrefix  = []byte(`{"cached":true,`)
	cachedFalsePrefix = []byte(`{"cached":false,`)
	trajectoryField   = []byte(`,"trajectory":`)
	pointsField       = []byte(`"points":`)
	elapsedField      = []byte(`,"elapsedMs":`)
	pointCachedTrue   = []byte(`"cached":true`)
	pointCachedFalse  = []byte(`"cached":false`)
)

// replyDigest reduces a 200 reply to what the oracle predicts: the CRC-32C
// of the solve reply's "trajectory" bytes (or of a sweep's "points" bytes
// with every per-point cached flag written as false, since which groups were
// cached depends on timing) plus the solve reply's cached flag (-1 for a
// sweep). Everything else in a reply is elapsed time.
func replyDigest(sweep bool, body []byte) (crc uint32, cached int8, err error) {
	if !bytes.HasSuffix(body, []byte("}\n")) {
		return 0, 0, errors.New("reply is not one JSON object")
	}
	if sweep {
		i := bytes.Index(body, pointsField)
		j := bytes.LastIndex(body, elapsedField)
		if i < 0 || j < i {
			return 0, 0, errors.New("sweep reply has no points")
		}
		pts := bytes.ReplaceAll(body[i+len(pointsField):j], pointCachedTrue, pointCachedFalse)
		return crc32.Checksum(pts, castagnoli), -1, nil
	}
	switch {
	case bytes.HasPrefix(body, cachedTruePrefix):
		cached = 1
	case bytes.HasPrefix(body, cachedFalsePrefix):
		cached = 0
	default:
		return 0, 0, errors.New("solve reply does not start with the cached flag")
	}
	i := bytes.Index(body, trajectoryField)
	if i < 0 {
		return 0, 0, errors.New("solve reply has no trajectory")
	}
	return crc32.Checksum(body[i+len(trajectoryField):len(body)-2], castagnoli), cached, nil
}

// newSolver builds the resumable solver a normalized request describes,
// decimated as the request asks: the same construction solverd uses, so the
// oracle's rows are the rows a correct server returns.
func newSolver(req *modelio.SolveRequest) (*core.Solver, error) {
	s, err := newDenseSolver(req)
	if err != nil {
		return nil, err
	}
	if req.Decimate > 1 {
		if err := s.Decimate(req.Decimate); err != nil {
			s.Release()
			return nil, err
		}
	}
	return s, nil
}

func newDenseSolver(req *modelio.SolveRequest) (*core.Solver, error) {
	switch req.Algorithm {
	case modelio.AlgoExact:
		return core.NewExactMVASolver(req.Model)
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
	}
	return nil, fmt.Errorf("benchmark has no solver for algorithm %q", req.Algorithm)
}

// trajectoryOf is the reply trajectory for req read off res, a trajectory
// solved at least to req.MaxN: prefix, thin, and re-derive the final row
// when decimation skipped it.
func trajectoryOf(res *core.Result, req *modelio.SolveRequest) (*modelio.Trajectory, error) {
	view, err := res.PrefixPop(req.MaxN)
	if err != nil {
		return nil, err
	}
	traj := modelio.NewTrajectory(view, req.Every)
	if view.IndexOf(req.MaxN) < 0 {
		rows, err := view.Recover([]int{req.MaxN}, func() (*core.Solver, error) { return newDenseSolver(req) })
		if err != nil {
			return nil, err
		}
		traj.AppendRecovered(rows[0])
	}
	return traj, nil
}

// digest marshals v as solverd's encoder does and returns its CRC-32C.
// json.Marshal refuses NaN and Inf, so a non-finite float is an error here.
func digest(v any) (uint32, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	return crc32.Checksum(b, castagnoli), nil
}

// pointResult is one sweep grid point's reply read off its group's dense
// trajectory, following solverd's sweep contract: the bottleneck is the
// station with the highest utilization at the largest population, and each
// row's bottleneckUtil is that population's highest utilization.
func pointResult(res *core.Result, p modelio.GridPoint, pops []int) (modelio.SweepPointResult, error) {
	out := modelio.SweepPointResult{Point: p}
	maxPop := 0
	for _, n := range pops {
		maxPop = max(maxPop, n)
	}
	i := res.IndexOf(maxPop)
	if i < 0 {
		return out, fmt.Errorf("population %d not stored", maxPop)
	}
	worst := -1.0
	for k, u := range res.Util[i] {
		if u > worst {
			worst, out.Bottleneck = u, res.StationNames[k]
		}
	}
	for _, n := range pops {
		j := res.IndexOf(n)
		if j < 0 {
			return out, fmt.Errorf("population %d not stored", n)
		}
		bu := 0.0
		for _, u := range res.Util[j] {
			bu = max(bu, u)
		}
		out.Rows = append(out.Rows, modelio.SweepRow{N: n, X: res.X[j], R: res.R[j], Cycle: res.Cycle[j], BottleneckUtil: bu})
	}
	return out, nil
}

// expectation is the oracle's verdict for one request.
type expectation struct {
	crc uint32
	err error // the oracle itself found the reply impossible (e.g. a NaN)
}

// expect recomputes the expected reply digest of every request in reqs,
// independent of the server: one reference solver per variant (and per sweep
// group) runs to each distinct requested population in ascending order, and
// every distinct (key, maxN, every) is marshalled once. Variants are spread
// over the CPUs.
func expect(reqs []*request) map[int]expectation {
	byVariant := make(map[*variant][]*request)
	var order []*variant
	for _, r := range reqs {
		if _, ok := byVariant[r.v]; !ok {
			order = append(order, r.v)
		}
		byVariant[r.v] = append(byVariant[r.v], r)
	}
	out := make(map[int]expectation, len(reqs))
	var mu sync.Mutex
	jobs := make(chan *variant)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range jobs {
				got := expectVariant(v, byVariant[v])
				mu.Lock()
				for idx, e := range got {
					out[idx] = e
				}
				mu.Unlock()
			}
		}()
	}
	for _, v := range order {
		jobs <- v
	}
	close(jobs)
	wg.Wait()
	return out
}

func expectVariant(v *variant, reqs []*request) map[int]expectation {
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].maxN < reqs[j].maxN })
	out := make(map[int]expectation, len(reqs))
	memo := make(map[string]expectation)
	var sol *core.Solver
	groups := make(map[string]*core.Solver) // sweep group solvers by resolved point
	defer func() {
		sol.Release()
		for _, s := range groups {
			s.Release()
		}
	}()
	for _, r := range reqs {
		key := strconv.Itoa(r.maxN) + "/" + strconv.Itoa(r.every)
		if r.sweep {
			key = fmt.Sprint("sweep", r.pops)
		}
		e, ok := memo[key]
		if !ok {
			var err error
			if r.sweep {
				e.crc, err = expectSweep(v, r.pops, groups)
			} else {
				req := v.solveRequest(r.maxN, r.every)
				if err = req.Normalize(); err == nil && sol == nil {
					sol, err = newSolver(req)
				}
				if err == nil {
					e.crc, err = expectSolve(sol, req)
				}
			}
			e.err = err
			memo[key] = e
		}
		out[r.idx] = e
	}
	return out
}

// expectSolve digests the reply to the normalized req, running sol (a
// reference solver for req's key) as far as req.MaxN first.
func expectSolve(sol *core.Solver, req *modelio.SolveRequest) (uint32, error) {
	if err := sol.Run(req.MaxN); err != nil {
		return 0, err
	}
	traj, err := trajectoryOf(sol.Result(), req)
	if err != nil {
		return 0, err
	}
	return digest(traj)
}

func expectSweep(v *variant, pops []int, groups map[string]*core.Solver) (uint32, error) {
	sr := v.sweepRequest(pops)
	if err := sr.Normalize(); err != nil {
		return 0, err
	}
	points, err := sr.Expand(0)
	if err != nil {
		return 0, err
	}
	results := make([]modelio.SweepPointResult, len(points))
	for _, g := range sr.PlanSweep(points) {
		sig := fmt.Sprint(g.Point.ThinkTime, g.Point.Servers)
		sol := groups[sig]
		pr := sr.PointRequest(g.Point)
		if sol == nil {
			if sol, err = newSolver(pr); err != nil {
				return 0, err
			}
			groups[sig] = sol
		}
		if err := sol.Run(sr.MaxN); err != nil {
			return 0, err
		}
		view, err := sol.Result().PrefixPop(sr.MaxN)
		if err != nil {
			return 0, err
		}
		for _, i := range g.Members {
			if results[i], err = pointResult(view, points[i], sr.Populations); err != nil {
				return 0, err
			}
		}
	}
	return digest(results)
}
