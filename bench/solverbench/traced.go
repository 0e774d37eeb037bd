package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/modelio"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// span is one layer call of the traced run, written to trace-<workload>.json.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`    // request index in the workload's stream
	Parent int    `json:"parent"` // index of the enclosing span, -1 for none
	Start  int64  `json:"start"`  // ns since the traced run began
	End    int64  `json:"end"`
	Alg    string `json:"alg,omitempty"`  // core spans: the algorithm
	Pops   int    `json:"pops,omitempty"` // core spans: populations stepped or rows recovered
}

// tracer keeps one goroutine's spans in memory. A nil tracer records
// nothing, which is how the untraced replays of trace.overhead_pct run.
type tracer struct {
	origin time.Time
	prefix string // prepended to span names (probe spans)
	req    int
	spans  []span
	open   []int
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: t.prefix + name, Req: t.req, Parent: parent, Start: int64(time.Since(t.origin))})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.origin))
	t.open = t.open[:len(t.open)-1]
}

// rename relabels a span once its outcome is known (server.solve.hit...).
func (t *tracer) rename(i int, name string) {
	if t != nil {
		t.spans[i].Name = t.prefix + name
	}
}

func (t *tracer) annotate(i int, alg string, pops int) {
	if t != nil {
		t.spans[i].Alg, t.spans[i].Pops = alg, pops
	}
}

// newDefaultServer builds an in-process solverd configured as the solverd
// command configures one with default flags: flight recorder and event
// journal on, anomaly profiling off, admission gate observing, access log at
// info level (written to io.Discard instead of stderr).
func newDefaultServer(node string) *server.Server {
	jn := journal.New(journal.Config{Node: node, PerTypeCap: 512})
	return server.New(server.Config{
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		Recorder: obs.New(obs.Config{
			Node:          node,
			MaxTraces:     obs.DefaultMaxTraces,
			SlowThreshold: obs.DefaultSlowThreshold,
			SampleRate:    obs.DefaultSampleRate,
		}),
		Journal:   jn,
		Profiles:  journal.NewProfileStore(journal.ProfileConfig{Node: node, MaxProfiles: -1, Journal: jn}),
		Admission: admission.Config{Mode: admission.ModeObserve},
	})
}

// decodeStrict decodes a body the way solverd's handlers do: unknown fields
// and trailing data are errors.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// maxSweepPoints is solverd's default -max-sweep-points.
const maxSweepPoints = 1024

// layered replays one request through the layers' public functions in the
// order solverd's handler calls them, one span per call: decode, normalize,
// cache key (a solve) or sweep plan (a sweep), admission, engine, encode.
// It returns the engine outcome (hit, extend, miss or sweep), the reply
// object and its encoding in buf.
func layered(s *server.Server, r *request, tr *tracer, buf *bytes.Buffer) (string, any, error) {
	ctx := telemetry.WithTrace(context.Background(), telemetry.New(telemetry.NewID(), nil))
	root := tr.begin("request")
	defer tr.end(root)
	var (
		resp    any
		outcome = "sweep"
		err     error
	)
	if r.sweep {
		var req modelio.SweepRequest
		if err := traceCall(tr, "modelio.decode", func() error { return decodeStrict(r.body, &req) }); err != nil {
			return "", nil, err
		}
		if err := traceCall(tr, "modelio.normalize", req.Normalize); err != nil {
			return "", nil, err
		}
		if err := traceCall(tr, "modelio.sweep_plan", func() error { return planSweep(&req) }); err != nil {
			return "", nil, err
		}
		sp := tr.begin("admission.evaluate")
		s.Admission().Evaluate()
		tr.end(sp)
		sctx, cancel := s.SolveContext(ctx, req.TimeoutMS)
		sp = tr.begin("server.sweep")
		resp, err = s.Sweep(sctx, &req)
		tr.end(sp)
		cancel()
	} else {
		var req modelio.SolveRequest
		if err := traceCall(tr, "modelio.decode", func() error { return decodeStrict(r.body, &req) }); err != nil {
			return "", nil, err
		}
		if err := traceCall(tr, "modelio.normalize", req.Normalize); err != nil {
			return "", nil, err
		}
		if err := traceCall(tr, "modelio.cachekey", func() error { _, err := req.CacheKey(); return err }); err != nil {
			return "", nil, err
		}
		sp := tr.begin("admission.evaluate")
		s.Admission().Evaluate()
		tr.end(sp)
		sctx, cancel := s.SolveContext(ctx, req.TimeoutMS)
		sp = tr.begin("server.solve")
		resp, err = s.Solve(sctx, &req)
		tr.end(sp)
		cancel()
		if v, ok := telemetry.FromContext(ctx).Attr("cache"); ok {
			outcome = v.String()
		}
		tr.rename(sp, "server.solve."+outcome)
	}
	if err != nil {
		return "", nil, err
	}
	buf.Reset()
	err = traceCall(tr, "modelio.encode", func() error { return json.NewEncoder(buf).Encode(resp) })
	return outcome, resp, err
}

func traceCall(tr *tracer, name string, f func() error) error {
	sp := tr.begin(name)
	err := f()
	tr.end(sp)
	return err
}

// planSweep is the sweep planner as the engine runs it: expand the grid,
// hash the shared key material, group points by resolved model.
func planSweep(req *modelio.SweepRequest) error {
	points, err := req.Expand(maxSweepPoints)
	if err != nil {
		return err
	}
	if _, err := req.KeyBase(); err != nil {
		return err
	}
	req.PlanSweep(points)
	return nil
}

// allocsPer counts heap allocations per call over n calls of f, with one P
// as testing.AllocsPerRun does, outside every timed span.
func allocsPer(n int, f func(i int)) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// allocCalls is the length of every allocation pass.
const allocCalls = 200

// minNatural is how many spans of an engine outcome the stream must produce
// before its p50 is read off the stream; below it, probes measure it.
const minNatural = 20

// tracedRun is one workload's traced in-process run. The stream is replayed
// request by request through three paths at once, so each request's spans
// share one heap and cache state: the layered engine path on server S, the
// whole handler stack on a twin server T fed the same stream, and core on
// fresh solvers. Probes then measure engine outcomes the stream does not
// produce (server P), and a two-node loopback fabric measures the cluster
// hop. Each phase's servers are dropped before the next starts.
type tracedRun struct {
	workload string
	tr       *tracer
	reqs     []*request
	primes   []*request
	solves   []*request // reqs that are solves, in stream order
	last     []*request // the last allocCalls solves: replayed as hits
	sizes    []float64  // encoded reply bytes per request
	members  []string
	lns      []net.Listener
	values   map[string]float64
}

// runTraced measures every per-layer metric of workload. e2e supplies the
// counter ratios and the raw end-to-end p50 http.overhead_us subtracts from.
func runTraced(ctx context.Context, o *Options, workload string, e2e *e2eResult) (map[string]float64, error) {
	t := &tracedRun{workload: workload, tr: &tracer{origin: time.Now()}, values: make(map[string]float64)}
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		t.lns = append(t.lns, ln)
		t.members = append(t.members, ln.Addr().String())
	}
	gen, err := newGenerator(workload, o.Seed, t.members)
	if err != nil {
		return nil, err
	}
	t.primes = gen.prime()
	st := &stream{gen: gen}
	count := max(1, int(float64(tracedRequests[workload])*o.TraceScale))
	for i := 0; i < count; i++ {
		r := st.next()
		t.reqs = append(t.reqs, r)
		if !r.sweep {
			t.solves = append(t.solves, r)
		}
	}
	t.last = t.solves[max(0, len(t.solves)-allocCalls):]

	for _, phase := range []func() error{t.replay, t.probes, func() error { return t.cluster(ctx) }} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := phase(); err != nil {
			return nil, err
		}
		runtime.GC() // the phase's servers are garbage; do not let them inflate the next
	}
	t.derive(e2e)
	if err := t.writeTrace(filepath.Join(o.OutDir, "trace-"+workload+".json")); err != nil {
		return nil, err
	}
	for k, v := range e2e.counters {
		t.values[k] = v
	}
	return t.values, nil
}

// replay feeds the stream to S's layered path, T's handler and core, then
// runs the allocation and tracing-overhead passes.
func (t *tracedRun) replay() error {
	s, twin := newDefaultServer("traced-engine"), newDefaultServer("traced-handler")
	h := twin.Handler()
	var buf bytes.Buffer
	for _, r := range t.primes {
		if _, _, err := layered(s, r, nil, &buf); err != nil {
			return fmt.Errorf("priming: %w", err)
		}
		if _, err := serveHTTP(h, nil, "prime", r, r.body, nil); err != nil {
			return err
		}
	}
	for _, r := range t.reqs {
		t.tr.req = r.idx
		if _, _, err := layered(s, r, t.tr, &buf); err != nil {
			return fmt.Errorf("request %d: %w", r.idx, err)
		}
		t.sizes = append(t.sizes, float64(buf.Len()))
		if _, err := serveHTTP(h, t.tr, "server.handler", r, r.body, nil); err != nil {
			return err
		}
		if !r.sweep {
			if err := t.core(r); err != nil {
				return fmt.Errorf("request %d: %w", r.idx, err)
			}
		}
	}
	for _, pass := range []func() error{
		func() error { return t.engineAllocs(s) },
		func() error { return t.handlerAllocs(h) },
		func() error { return t.traceOverhead(s) },
		t.stepAllocs,
	} {
		if err := pass(); err != nil {
			return err
		}
	}
	return nil
}

// engineAllocs counts the allocations of decode, cache key, encode and a
// prefix-hit Solve over the last solves of the stream, replayed once untimed
// first so every Solve is a hit.
func (t *tracedRun) engineAllocs(s *server.Server) error {
	var buf bytes.Buffer
	n := len(t.last)
	reqs := make([]*modelio.SolveRequest, n)
	resps := make([]any, n)
	for i, r := range t.last {
		_, resp, err := layered(s, r, nil, &buf)
		if err != nil {
			return err
		}
		resps[i] = resp
		reqs[i] = new(modelio.SolveRequest)
		if err := decodeStrict(r.body, reqs[i]); err != nil {
			return err
		}
		if err := reqs[i].Normalize(); err != nil {
			return err
		}
	}
	t.values["modelio.decode_allocs"] = allocsPer(allocCalls, func(i int) {
		var req modelio.SolveRequest
		_ = decodeStrict(t.last[i%n].body, &req) // decoded without error just above
	})
	t.values["modelio.cachekey_allocs"] = allocsPer(allocCalls, func(i int) {
		_, _ = reqs[i%n].CacheKey() // hashed without error just above
	})
	t.values["modelio.encode_allocs"] = allocsPer(allocCalls, func(i int) {
		buf.Reset()
		_ = json.NewEncoder(&buf).Encode(resps[i%n]) // encoded without error just above
	})
	ctxs := make([]context.Context, allocCalls)
	for i := range ctxs {
		ctx, cancel := s.SolveContext(telemetry.WithTrace(context.Background(), telemetry.New(telemetry.NewID(), nil)), 0)
		defer cancel()
		ctxs[i] = ctx
	}
	var solveErr error
	t.values["server.solve_hit_allocs"] = allocsPer(allocCalls, func(i int) {
		if _, err := s.Solve(ctxs[i], reqs[i%n]); err != nil {
			solveErr = err
		}
	})
	return solveErr
}

// handlerAllocs counts the allocations of T's whole handler on the same
// replays (hits: the stream has already solved them).
func (t *tracedRun) handlerAllocs(h http.Handler) error {
	hreqs := make([]*http.Request, allocCalls)
	recs := make([]*httptest.ResponseRecorder, allocCalls)
	for i := range hreqs {
		r := t.last[i%len(t.last)]
		hreqs[i] = httptest.NewRequest(http.MethodPost, r.path(), bytes.NewReader(r.body))
		recs[i] = httptest.NewRecorder()
	}
	t.values["server.handler_allocs"] = allocsPer(allocCalls, func(i int) { h.ServeHTTP(recs[i], hreqs[i]) })
	for _, rec := range recs {
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler allocation pass: status %d", rec.Code)
		}
	}
	return nil
}

// traceOverhead replays the last solves through the layered path twice
// each, once with spans and once without, alternating which goes first.
func (t *tracedRun) traceOverhead(s *server.Server) error {
	var (
		buf     bytes.Buffer
		on, off time.Duration
		scratch = &tracer{origin: time.Now()}
	)
	for round := 0; round < 2; round++ {
		for i, r := range t.last {
			for k := 0; k < 2; k++ {
				traced := (i+k)%2 == 0
				var tr *tracer
				if traced {
					scratch.spans = scratch.spans[:0]
					tr = scratch
				}
				start := time.Now()
				if _, _, err := layered(s, r, tr, &buf); err != nil {
					return err
				}
				if d := time.Since(start); traced {
					on += d
				} else {
					off += d
				}
			}
		}
	}
	if off > 0 {
		t.values["trace.overhead_pct"] = 100 * float64(on-off) / float64(off)
	}
	return nil
}

// serveHTTP runs one request for r's path through h via httptest, inside a
// span named name (none when tr is nil).
func serveHTTP(h http.Handler, tr *tracer, name string, r *request, body []byte, header http.Header) (*httptest.ResponseRecorder, error) {
	hreq := httptest.NewRequest(http.MethodPost, r.path(), bytes.NewReader(body))
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		hreq.Header[k] = v
	}
	rec := httptest.NewRecorder()
	sp := tr.begin(name)
	h.ServeHTTP(rec, hreq)
	tr.end(sp)
	if rec.Code != http.StatusOK {
		return rec, fmt.Errorf("request %d: %s status %d: %s", r.idx, name, rec.Code, rec.Body.Bytes())
	}
	return rec, nil
}

// core times the solver layer on fresh solvers for one solve request:
// build, cold run to maxN, the reply trajectory, a 200-population extend,
// and the recovery of one row skipped by a stride-50 decimation.
func (t *tracedRun) core(r *request) error {
	const extendBy = 200
	req := r.v.solveRequest(r.maxN, r.every)
	if err := req.Normalize(); err != nil {
		return err
	}
	sol, err := t.coreRun(req)
	if err != nil {
		return err
	}
	defer sol.Release()
	sp := t.tr.begin("modelio.trajectory")
	modelio.NewTrajectory(sol.Result(), r.every)
	t.tr.end(sp)
	view, err := sol.Result().PrefixPop(r.maxN)
	if err != nil {
		return err
	}
	sp = t.tr.begin("core.extend")
	err = sol.Run(r.maxN + extendBy)
	t.tr.end(sp)
	t.tr.annotate(sp, req.Algorithm, extendBy)
	if err != nil {
		return err
	}
	return t.recoverProbe(req, view)
}

// stepAllocs checks that the population step does not allocate: 200
// single-population extends of a reserved exact solver of this workload's
// first model.
func (t *tracedRun) stepAllocs() error {
	req := t.solves[0].v.solveRequest(1, 0)
	req.Algorithm, req.Samples, req.Decimate = modelio.AlgoExact, nil, 0
	sol, err := newSolver(req)
	if err != nil {
		return err
	}
	defer sol.Release()
	sol.Reserve(allocCalls + 1)
	var stepErr error
	t.values["core.step_allocs"] = allocsPer(allocCalls, func(i int) {
		if err := sol.Extend(i + 1); err != nil {
			stepErr = err
		}
	})
	return stepErr
}

// coreRun times building req's solver and its cold run to req.MaxN. The
// caller releases the solver.
func (t *tracedRun) coreRun(req *modelio.SolveRequest) (*core.Solver, error) {
	sp := t.tr.begin("core.build")
	sol, err := newSolver(req)
	t.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.tr.begin("core.run")
	err = sol.Run(req.MaxN)
	t.tr.end(sp)
	t.tr.annotate(sp, req.Algorithm, req.MaxN)
	if err != nil {
		sol.Release()
		return nil, err
	}
	return sol, nil
}

// recoverProbe re-derives one population a stride-50 decimation skipped,
// from the nearest stored checkpoint. A decimated request recovers from its
// own trajectory; a dense one from a stride-50 solve of the same model.
func (t *tracedRun) recoverProbe(req *modelio.SolveRequest, view *core.Result) error {
	const stride = coldDeepStride
	base, n := view, req.MaxN-req.Decimate/2
	if req.Decimate <= 1 || req.MaxN%req.Decimate != 0 {
		dreq := *req
		dreq.Decimate = stride
		sol, err := newSolver(&dreq)
		if err != nil {
			return err
		}
		defer sol.Release()
		top := (req.MaxN + stride - 1) / stride * stride
		if err := sol.Run(top); err != nil {
			return err
		}
		base, n = sol.Result(), top-stride/2
	}
	sp := t.tr.begin("core.recover")
	_, err := base.Recover([]int{n}, func() (*core.Solver, error) { return newDenseSolver(req) })
	t.tr.end(sp)
	t.tr.annotate(sp, req.Algorithm, 1)
	return err
}

// probeCount bounds how many stream requests seed probes.
const probeCount = 100

// probes measures engine outcomes the stream produces fewer than minNatural
// times, on a separate server P so the stream's own cache state is
// untouched. Each probe renames a stream request's model to a fresh key and
// solves it cold (miss), again (hit), and 50 populations further (extend);
// a workload without sweeps also sweeps the probe model over the mixed-rw
// grid at up to 400 users.
func (t *tracedRun) probes() error {
	counts := make(map[string]int)
	for _, sp := range t.tr.spans {
		counts[sp.Name]++
	}
	needSolve := counts["server.solve.hit"] < minNatural || counts["server.solve.extend"] < minNatural ||
		counts["server.solve.miss"] < minNatural
	needSweep := counts["server.sweep"] < minNatural
	if !needSolve && !needSweep {
		return nil
	}
	s := newDefaultServer("traced-probe")
	t.tr.prefix = "probe."
	defer func() { t.tr.prefix = "" }()
	var buf bytes.Buffer
	for i, r := range t.solves[:min(probeCount, len(t.solves))] {
		t.tr.req = r.idx
		name := r.v.model.Name + "~probe-" + strconv.Itoa(i)
		if needSolve {
			pv := r.v.derive(name, r.v.decimate)
			for _, pr := range []*request{
				solveReq(pv, r.maxN, r.every, cachedFalse),
				solveReq(pv, r.maxN, r.every, cachedTrue),
				solveReq(pv, r.maxN+coldDeepStride, r.every, cachedFalse),
			} {
				if _, _, err := layered(s, pr, t.tr, &buf); err != nil {
					return fmt.Errorf("probe: %w", err)
				}
			}
			req := pv.solveRequest(r.maxN, r.every)
			if err := req.Normalize(); err != nil {
				return err
			}
			sol, err := t.coreRun(req)
			if err != nil {
				return err
			}
			sol.Release()
		}
		if needSweep {
			top := min(r.maxN, 400)
			pops := make([]int, 8)
			for k := range pops {
				pops[k] = max(1, top*(k+1)/len(pops))
			}
			sv := r.v.derive(name+"-sweep", 0)
			pr := &request{idx: r.idx, sweep: true, body: sv.sweepBody(pops), v: sv, maxN: top, pops: pops}
			if _, _, err := layered(s, pr, t.tr, &buf); err != nil {
				return fmt.Errorf("probe sweep: %w", err)
			}
		}
	}
	return nil
}

// forwardedHeader marks a request as an intra-cluster hop: the owner serves
// it locally, as it serves the entry node's forwards.
const forwardedHeader = "X-Cluster-Forwarded"

// cluster measures the forward hop on a two-node fabric over loopback, run
// as solverd -peers A,B -replication 1 runs it. Each solve request's model
// is renamed (if needed) until B owns its key, solved once on B, and then
// timed twice: B's own handler on the forwarded body (cluster.owner) and A's
// gateway forwarding it to B (cluster.forward).
func (t *tracedRun) cluster(ctx context.Context) error {
	srvs := make([]*server.Server, len(t.members))
	gws := make([]*cluster.Gateway, len(t.members))
	for i, addr := range t.members {
		srvs[i] = newDefaultServer(addr)
		gw, err := cluster.New(srvs[i], cluster.Config{
			Self:        addr,
			Peers:       t.members,
			Replication: 1,
			Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
		if err != nil {
			return err
		}
		gws[i] = gw
	}
	ctx, cancel := context.WithCancel(ctx)
	errc := make(chan error, len(srvs))
	for i, srv := range srvs {
		go func(srv *server.Server, ln net.Listener) { errc <- srv.Serve(ctx, ln) }(srv, t.lns[i])
	}
	defer func() {
		cancel()
		for range srvs {
			<-errc // Serve returns once its listener is closed and requests drained
		}
	}()
	entry, owner := gws[0], gws[1]
	hop := http.Header{forwardedHeader: {t.members[0]}}
	for _, r := range t.primes {
		if _, err := serveHTTP(entry, nil, "prime", r, r.body, nil); err != nil {
			return err
		}
	}

	ring := cluster.NewRing(t.members, cluster.DefaultVirtualNodes)
	owned := make(map[*variant]*variant)
	bodies := make([][]byte, 0, len(t.solves))
	for _, r := range t.solves {
		bv, ok := owned[r.v]
		for k := 0; !ok; k++ {
			cand := r.v
			if k > 0 {
				cand = r.v.derive(r.v.model.Name+"~owned-"+strconv.Itoa(k), r.v.decimate)
			}
			who, err := ownerOf(ring, cand)
			if err != nil {
				return err
			}
			if ok = who == t.members[1]; ok {
				bv, owned[r.v] = cand, cand
			}
		}
		t.tr.req = r.idx
		body := bv.solveBody(r.maxN, r.every)
		bodies = append(bodies, body)
		if _, err := serveHTTP(owner, nil, "prime", r, body, hop); err != nil {
			return err
		}
		own, err := serveHTTP(owner, t.tr, "cluster.owner", r, body, hop)
		if err != nil {
			return err
		}
		fwd, err := serveHTTP(entry, t.tr, "cluster.forward", r, body, nil)
		if err != nil {
			return err
		}
		a, _, err1 := replyDigest(false, own.Body.Bytes())
		b, _, err2 := replyDigest(false, fwd.Body.Bytes())
		if err := errors.Join(err1, err2); err != nil || a != b {
			return fmt.Errorf("request %d: forwarded reply differs from the owner's (%v)", r.idx, err)
		}
	}
	hreqs := make([]*http.Request, allocCalls)
	recs := make([]*httptest.ResponseRecorder, allocCalls)
	tail := bodies[max(0, len(bodies)-allocCalls):]
	for i := range hreqs {
		hreqs[i] = httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(tail[i%len(tail)]))
		recs[i] = httptest.NewRecorder()
	}
	t.values["cluster.forward_allocs"] = allocsPer(allocCalls, func(i int) { entry.ServeHTTP(recs[i], hreqs[i]) })
	for _, rec := range recs {
		if rec.Code != http.StatusOK {
			return fmt.Errorf("forward allocation pass: status %d", rec.Code)
		}
	}
	return nil
}

// derive turns the recorded spans into per-layer metrics: p50 self times
// (µs), per-population costs from core spans, and per-request differences.
func (t *tracedRun) derive(e2e *e2eResult) {
	spans := t.tr.spans
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string][]float64)        // name -> self times, µs
	byReq := make(map[string]map[int]float64) // name -> request -> self time, µs
	perPop := make(map[string][]float64)      // core span name[.alg] -> ns per population
	for i, s := range spans {
		us := float64(s.End-s.Start-child[i]) / 1e3
		self[s.Name] = append(self[s.Name], us)
		if byReq[s.Name] == nil {
			byReq[s.Name] = make(map[int]float64)
		}
		byReq[s.Name][s.Req] = us
		if s.Pops > 0 {
			ns := float64(s.End-s.Start) / float64(s.Pops)
			perPop[s.Name] = append(perPop[s.Name], ns)
			perPop[s.Name+"."+s.Alg] = append(perPop[s.Name+"."+s.Alg], ns)
		}
	}
	// natural prefers the stream's own spans and falls back to probes.
	natural := func(name string) string {
		if len(self[name]) >= minNatural || len(self["probe."+name]) == 0 {
			return name
		}
		return "probe." + name
	}
	v := t.values
	for _, name := range []string{"modelio.decode", "modelio.normalize", "modelio.cachekey", "modelio.trajectory",
		"modelio.encode", "admission.evaluate", "server.handler", "core.build", "cluster.forward", "cluster.owner"} {
		v[name+"_us"] = median(self[name])
	}
	v["modelio.sweep_plan_us"] = median(self[natural("modelio.sweep_plan")])
	v["server.sweep_us"] = median(self[natural("server.sweep")])
	for _, o := range []string{"hit", "extend", "miss"} {
		v["server.solve_"+o+"_us"] = median(self[natural("server.solve."+o)])
	}
	for _, alg := range []string{modelio.AlgoExact, modelio.AlgoMultiServer, modelio.AlgoMVASD} {
		v["core.run_ns_per_pop."+alg] = median(perPop["core.run."+alg])
	}
	v["core.extend_ns_per_pop"] = median(perPop["core.extend"])
	v["core.recover_us_per_row"] = median(perPop["core.recover"]) / 1e3

	// Engine overhead: a miss minus its own solver build and cold run.
	miss := natural("server.solve.miss")
	prefix := ""
	if miss != "server.solve.miss" {
		prefix = "probe."
	}
	v["server.engine_overhead_us"] = median(pairDiff(byReq[miss], byReq[prefix+"core.build"], byReq[prefix+"core.run"]))

	// Middleware: the handler minus the layers it calls, per request.
	engine := make(map[int]float64)
	for _, name := range []string{"server.solve.hit", "server.solve.extend", "server.solve.miss", "server.sweep"} {
		for req, us := range byReq[name] {
			engine[req] = us
		}
	}
	v["server.middleware_us"] = median(pairDiff(byReq["server.handler"], byReq["modelio.decode"], byReq["modelio.normalize"],
		byReq["admission.evaluate"], engine, byReq["modelio.encode"]))
	v["cluster.hop_us"] = median(pairDiff(byReq["cluster.forward"], byReq["cluster.owner"]))
	v["modelio.response_bytes"] = median(t.sizes)
	inProcess := v["server.handler_us"]
	if t.workload == forward {
		inProcess = v["cluster.forward_us"]
	}
	// Both sides at the machine's speed of the moment: the raw p50.
	v["http.overhead_us"] = e2e.raw["latency_p50_ms"]*1e3 - inProcess
}

// pairDiff is, for each request base holds, base minus every other map's
// value for the same request; requests missing from any map are skipped.
func pairDiff(base map[int]float64, minus ...map[int]float64) []float64 {
	var out []float64
	for req, b := range base {
		ok := true
		for _, m := range minus {
			x, found := m[req]
			if !found {
				ok = false
				break
			}
			b -= x
		}
		if ok {
			out = append(out, b)
		}
	}
	return out
}

func (t *tracedRun) writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.tr.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
