// Solver-engine microbenchmarks: the perf counterpart to the paper-artefact
// benchmarks in bench_test.go. These track the resumable-solver work — cold
// solves per algorithm, in-place extension (the amortized per-population step
// cost, which must stay allocation-free), service-level prefix hits, and the
// sweep planner's one-solve-per-model-group collapse versus a naive
// point-by-point sweep:
//
//	go test -bench=Solver -benchmem
//
// Every solver benchmark also appends a record to BENCH_solver.json (written
// by TestMain after the run) so the perf trajectory is diffable across
// commits; `benchstat old.txt new.txt` over saved `-bench=Solver` output
// gives significance-tested deltas.
package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/chebyshev"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/modelio"
	"repro/internal/queueing"
	"repro/internal/server"
	"repro/internal/testbed"
)

// benchSolverModel is the three-tier model the solver benchmarks share: a
// multi-core app tier, a single-server disk and a delay-center LAN, the
// shape of the paper's testbeds.
func benchSolverModel() *queueing.Model {
	return &queueing.Model{
		Name:      "bench-solver",
		ThinkTime: 1,
		Stations: []queueing.Station{
			{Name: "app/cpu", Kind: queueing.CPU, Servers: 4, Visits: 1, ServiceTime: 0.02},
			{Name: "db/disk", Kind: queueing.Disk, Servers: 1, Visits: 3, ServiceTime: 0.005},
			{Name: "lan", Kind: queueing.Delay, Servers: 1, Visits: 1, ServiceTime: 0.004},
		},
	}
}

// benchRecord is one line of BENCH_solver.json.
type benchRecord struct {
	Name     string  `json:"name"`
	N        int     `json:"iterations"`
	NsPerOp  float64 `json:"ns_per_op"`
	ExtraKey string  `json:"extra_key,omitempty"`
	Extra    float64 `json:"extra,omitempty"`
	// AllocsPerOp, when measured, lets cmd/benchdiff gate allocation
	// regressions: a baseline of 0 must stay 0 (a pointer so "unmeasured"
	// and "zero" stay distinct in the JSON).
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

var (
	benchRecMu  sync.Mutex
	benchRecods []benchRecord
)

// recordBench captures the benchmark's own timing for BENCH_solver.json.
// Call it at the end of the benchmark body, after the timed work.
func recordBench(b *testing.B, extraKey string, extra float64) {
	b.Helper()
	benchRecMu.Lock()
	defer benchRecMu.Unlock()
	benchRecods = append(benchRecods, benchRecord{
		Name:     b.Name(),
		N:        b.N,
		NsPerOp:  float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		ExtraKey: extraKey,
		Extra:    extra,
	})
}

// recordBenchAllocs is recordBench plus an explicitly measured allocs/op
// (benchmarks that pin a zero-allocation hot path measure it with
// testing.AllocsPerRun so the record reflects the steady-state step, not
// setup work the timing loop amortizes away).
func recordBenchAllocs(b *testing.B, extraKey string, extra, allocsPerOp float64) {
	b.Helper()
	benchRecMu.Lock()
	defer benchRecMu.Unlock()
	benchRecods = append(benchRecods, benchRecord{
		Name:        b.Name(),
		N:           b.N,
		NsPerOp:     float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		ExtraKey:    extraKey,
		Extra:       extra,
		AllocsPerOp: &allocsPerOp,
	})
}

// recordBenchNamed appends a synthetic named record (the cluster-forward
// benchmark publishes its latency percentiles as their own records, so the
// benchdiff per-name gate covers p50 and p99 individually, not just the mean).
func recordBenchNamed(name string, n int, nsPerOp float64) {
	benchRecMu.Lock()
	defer benchRecMu.Unlock()
	benchRecods = append(benchRecods, benchRecord{Name: name, N: n, NsPerOp: nsPerOp})
}

// TestMain writes BENCH_solver.json when any solver benchmark ran; plain
// test runs leave no artefact behind. The harness invokes each benchmark
// several times while calibrating b.N, so records are deduplicated by name,
// keeping the final (highest-iteration) run — the one whose timing is stable
// enough to diff against.
func TestMain(m *testing.M) {
	code := m.Run()
	benchRecMu.Lock()
	best := make(map[string]int, len(benchRecods))
	recs := benchRecods[:0]
	for _, r := range benchRecods {
		if i, ok := best[r.Name]; ok {
			if r.N >= recs[i].N {
				recs[i] = r
			}
			continue
		}
		best[r.Name] = len(recs)
		recs = append(recs, r)
	}
	benchRecMu.Unlock()
	if len(recs) > 0 {
		if buf, err := json.MarshalIndent(struct {
			Benchmarks []benchRecord `json:"benchmarks"`
		}{recs}, "", "  "); err == nil {
			if err := os.WriteFile("BENCH_solver.json", append(buf, '\n'), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "writing BENCH_solver.json:", err)
			}
		}
	}
	os.Exit(code)
}

// BenchmarkSolverCold measures a full build→Run(N)→Release cycle per
// algorithm: the cache-miss cost of the service.
func BenchmarkSolverCold(b *testing.B) {
	const maxN = 200
	m := benchSolverModel()
	dm := core.FuncDemands{K: len(m.Stations), F: func(k, n int) float64 {
		return m.Stations[k].Visits * m.Stations[k].ServiceTime * (1 + 0.001*float64(n))
	}}
	makers := []struct {
		name string
		make func() (*core.Solver, error)
	}{
		{"exact", func() (*core.Solver, error) { return core.NewExactMVASolver(m) }},
		{"schweitzer", func() (*core.Solver, error) { return core.NewSchweitzerSolver(m, core.SchweitzerOptions{}) }},
		{"multiserver", func() (*core.Solver, error) {
			return core.NewMultiServerSolver(m, core.MultiServerOptions{TraceStation: -1})
		}},
		{"mvasd", func() (*core.Solver, error) { return core.NewMVASDSolver(m, dm, core.MVASDOptions{}) }},
		{"loaddep", func() (*core.Solver, error) { return core.NewLoadDependentSolver(m, nil) }},
	}
	for _, mk := range makers {
		b.Run(mk.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := mk.make()
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Run(maxN); err != nil {
					b.Fatal(err)
				}
				s.Release()
			}
			recordBench(b, "max_n", maxN)
		})
	}
}

// BenchmarkSolverExtend measures the amortized cost of extending an exact
// solver by one population — the hot step the AllocsPerRun test pins at
// zero allocations. The solver is rebuilt every `window` steps so memory
// stays bounded regardless of b.N.
func BenchmarkSolverExtend(b *testing.B) {
	const window = 512
	m := benchSolverModel()
	newSolver := func() *core.Solver {
		s, err := core.NewExactMVASolver(m)
		if err != nil {
			b.Fatal(err)
		}
		s.Reserve(window)
		return s
	}
	s := newSolver()
	defer func() { s.Release() }()
	n := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n == window {
			b.StopTimer()
			s.Release()
			s = newSolver()
			n = 0
			b.StartTimer()
		}
		n++
		if err := s.Extend(n); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Steady-state step allocations, measured outside the timing loop: a
	// reserved solver must extend with zero allocations (the benchdiff gate
	// fails the build if this ever grows).
	alloc := newSolver()
	defer alloc.Release()
	an := 0
	allocs := testing.AllocsPerRun(window/2, func() {
		an++
		if err := alloc.Extend(an); err != nil {
			b.Fatal(err)
		}
	})
	recordBenchAllocs(b, "window", window, allocs)
}

// BenchmarkSolverDeep measures cold decimated deep solves at population
// depths from 10³ to 10⁶ — the bounded-memory path million-user what-ifs
// take. The per-iteration cost is the whole solve; the recorded extra is
// ns per population, the figure that must stay flat (within 2×) from the
// dense N=200 cold solve up to N=10⁶, proving the recursion's step cost
// does not degrade with depth.
func BenchmarkSolverDeep(b *testing.B) {
	m := benchSolverModel()
	for _, maxN := range []int{1_000, 10_000, 100_000, 1_000_000} {
		stride := (maxN + 4095) / 4096
		b.Run(fmt.Sprintf("exact/N%d", maxN), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := core.NewExactMVASolver(m)
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Decimate(stride); err != nil {
					b.Fatal(err)
				}
				if err := s.Run(maxN); err != nil {
					b.Fatal(err)
				}
				if s.Result().SolvedN() != maxN {
					b.Fatal("deep solve fell short")
				}
				s.Release()
			}
			recordBench(b, "ns_per_pop",
				float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(maxN))
		})
	}
	benchDeepMultiServer(b)
}

// benchDeepMultiServer measures the multi-server deep solves the service
// spends its cold-solve time in: the twelve-station VINS testbed model
// (three 16-core CPUs) to N=10⁴ at stride 50, through Algorithm 2 with
// constant demands and Algorithm 3 with demands interpolated from seven
// Chebyshev-node samples, the way solverd builds them from a request.
// Alongside ns per population, each records the allocations per step of a
// run across whole strides, stored rows included, which must stay at zero.
func benchDeepMultiServer(b *testing.B) {
	const maxN, stride = 10_000, 50
	prof := testbed.VINS()
	m := prof.Model(1)
	nodes, err := chebyshev.IntegerNodesOn(1, float64(prof.MaxUsers), 7)
	if err != nil {
		b.Fatal(err)
	}
	samples := make([]core.DemandSamples, len(m.Stations))
	for _, n := range nodes {
		for k, d := range prof.TrueDemands(n) {
			samples[k].At = append(samples[k].At, float64(n))
			samples[k].Demands = append(samples[k].Demands, d)
		}
	}
	dm, err := core.NewCurveDemands(interp.CubicNotAKnot, samples, interp.Options{})
	if err != nil {
		b.Fatal(err)
	}
	makers := []struct {
		name string
		make func() (*core.Solver, error)
	}{
		{"multiserver", func() (*core.Solver, error) {
			return core.NewMultiServerSolver(m, core.MultiServerOptions{TraceStation: -1})
		}},
		{"mvasd", func() (*core.Solver, error) { return core.NewMVASDSolver(m, dm, core.MVASDOptions{}) }},
	}
	for _, mk := range makers {
		b.Run(fmt.Sprintf("%s/N%d", mk.name, maxN), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := mk.make()
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Decimate(stride); err != nil {
					b.Fatal(err)
				}
				if err := s.Run(maxN); err != nil {
					b.Fatal(err)
				}
				s.Release()
			}
			b.StopTimer()
			nsPerPop := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(maxN)
			s, err := mk.make()
			if err != nil {
				b.Fatal(err)
			}
			defer s.Release()
			recordBenchAllocs(b, "ns_per_pop", nsPerPop, strideAllocs(b, s, stride))
		})
	}
}

// TestDecimatedStepBetweenRowsAllocs pins a decimated multi-server run at
// zero allocations per stride, its stored row included, with and without
// the server's hooks installed.
func TestDecimatedStepBetweenRowsAllocs(t *testing.T) {
	m := testbed.VINS().Model(1)
	dm := core.ConstantDemands(m.Demands())
	for _, hooked := range []bool{false, true} {
		for name, mk := range map[string]func() (*core.Solver, error){
			"multiserver": func() (*core.Solver, error) {
				return core.NewMultiServerSolver(m, core.MultiServerOptions{TraceStation: -1})
			},
			"mvasd": func() (*core.Solver, error) { return core.NewMVASDSolver(m, dm, core.MVASDOptions{}) },
		} {
			s, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			steps := 0
			if hooked {
				s.SetHooks(&core.SolveHooks{OnStep: func(int, float64) { steps++ }})
			}
			if allocs := strideAllocs(t, s, 50); allocs != 0 {
				t.Errorf("%s (hooks %v): %.2f allocs per step across a stride, want 0", name, hooked, allocs)
			}
			if hooked && steps == 0 {
				t.Errorf("%s: OnStep never fired", name)
			}
			s.Release()
		}
	}
}

// strideAllocs returns the allocations per population step of a decimated
// run across whole strides, each stored row included, inside reserved
// capacity.
func strideAllocs(tb testing.TB, s *core.Solver, stride int) float64 {
	const runs = 20
	if err := s.Decimate(stride); err != nil {
		tb.Fatal(err)
	}
	s.Reserve((runs + 2) * stride)
	n := 0
	perStride := testing.AllocsPerRun(runs, func() {
		n += stride
		if err := s.Run(n); err != nil {
			tb.Fatal(err)
		}
	})
	return perStride / float64(stride)
}

// benchPostJSON posts a JSON body and drains the response.
func benchPostJSON(b *testing.B, url string, body any) (*http.Response, []byte) {
	b.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		b.Fatal(err)
	}
	return resp, out
}

// BenchmarkSolverPrefixHit measures the full service path of a cache hit: a
// /v1/solve request answered from a longer cached trajectory's prefix,
// never touching the solver or the worker pool, its rows' text copied from
// the entry's row text memo. The steady-state allocs/op of the round trip is
// recorded too, so benchdiff gates the hit path's allocations.
func BenchmarkSolverPrefixHit(b *testing.B) {
	srv := server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func(maxN int) {
		resp, body := benchPostJSON(b, ts.URL+"/v1/solve",
			modelio.SolveRequest{Model: benchSolverModel(), MaxN: maxN})
		if resp.StatusCode != 200 {
			b.Fatalf("solve: %d %s", resp.StatusCode, body)
		}
	}
	post(400) // prime the cache past every benchmark request
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(200)
	}
	b.StopTimer()
	allocs := testing.AllocsPerRun(32, func() { post(200) })
	recordBenchAllocs(b, "cached_n", 400, allocs)
}

// BenchmarkSolverStridedHit measures a /v1/solve prefix hit that reads a
// 3000-row dense entry every tenth population, the shape of solverbench's
// mixed-rw replies, through the handler in-process: decode, cache lookup,
// the strided trajectory cut and its encoding, whose on-stride rows are
// copied from the entry's strided row text memo and whose off-stride final
// population is formatted. The steady-state allocs/op is recorded too.
func BenchmarkSolverStridedHit(b *testing.B) {
	srv := server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	h := srv.Handler()
	body, err := json.Marshal(modelio.SolveRequest{
		Algorithm: modelio.AlgoMultiServer, Model: testbed.VINS().Model(1), MaxN: 3000, Every: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	post := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("solve: %d %s", rec.Code, rec.Body)
		}
	}
	post() // the first solve: every later request is a hit
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
	b.StopTimer()
	recordBenchAllocs(b, "cached_n", 3000, testing.AllocsPerRun(32, post))
}

// BenchmarkSolverClusterForward measures the full cross-node hop of a routed
// solve: a two-node fabric where the entry node does not own the key, so every
// request rides the forwarding path (route → forwardOne → peer's warm cache →
// relay). Beyond the mean, the per-op latency distribution is recorded as
// synthetic p50/p99 records — the tail is what a fleet operator provisions by
// — plus the steady-state allocs/op of the whole hop, gated by benchdiff.
func BenchmarkSolverClusterForward(b *testing.B) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	listeners := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer ln.Close()
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	var gws [2]*cluster.Gateway
	for i := range listeners {
		srv := server.New(server.Config{Logger: logger})
		gw, err := cluster.New(srv, cluster.Config{
			Self:        addrs[i],
			Peers:       addrs,
			Replication: 1,
			// Hedging off the table: a hedged race would double-count the hop.
			HedgeMin: 10 * time.Second,
			HedgeMax: 10 * time.Second,
			Logger:   logger,
		})
		if err != nil {
			b.Fatal(err)
		}
		gw.Start(ctx)
		defer gw.Stop()
		gws[i] = gw
		go srv.Serve(ctx, listeners[i])
	}

	// Find a model whose key the remote node owns, so entry → owner is a real
	// network hop on every request.
	entry, owner := addrs[0], addrs[1]
	var req *modelio.SolveRequest
	for i := 0; i < 64; i++ {
		m := benchSolverModel()
		m.Name = fmt.Sprintf("bench-forward-%d", i)
		cand := &modelio.SolveRequest{Model: m, MaxN: 200}
		cp := *cand
		cp.Model = &*cand.Model
		if err := cp.Normalize(); err != nil {
			b.Fatal(err)
		}
		key, err := cp.CacheKey()
		if err != nil {
			b.Fatal(err)
		}
		if gws[0].Ring().Owners(key, 1)[0] == owner {
			req = cand
			break
		}
	}
	if req == nil {
		b.Fatal("no remote-owned key found in 64 candidates")
	}
	post := func() {
		resp, body := benchPostJSON(b, "http://"+entry+"/v1/solve", req)
		if resp.StatusCode != 200 {
			b.Fatalf("forwarded solve: %d %s", resp.StatusCode, body)
		}
	}
	post() // warm the owner's cache: the hop cost, not the solve, is measured

	perOp := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		post()
		perOp = append(perOp, time.Since(start))
	}
	b.StopTimer()

	sort.Slice(perOp, func(i, j int) bool { return perOp[i] < perOp[j] })
	quantile := func(q float64) float64 {
		idx := int(q * float64(len(perOp)-1))
		return float64(perOp[idx].Nanoseconds())
	}
	recordBenchNamed(b.Name()+"/p50", b.N, quantile(0.50))
	recordBenchNamed(b.Name()+"/p99", b.N, quantile(0.99))
	// Steady-state allocations of one forwarded round trip, measured outside
	// the timing loop; benchdiff gates growth against the committed baseline.
	allocs := testing.AllocsPerRun(32, post)
	recordBenchAllocs(b, "peers", 2, allocs)
}

// sweepPopulations is the shared grid for the planned-vs-naive pair: eight
// populations of one model, i.e. one planner group.
var sweepPopulations = []int{50, 100, 150, 200, 250, 300, 350, 400}

// BenchmarkSolverSweepNaive solves every population of the grid from
// scratch — what the service did before the sweep planner.
func BenchmarkSolverSweepNaive(b *testing.B) {
	m := benchSolverModel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, n := range sweepPopulations {
			s, err := core.NewMultiServerSolver(m, core.MultiServerOptions{TraceStation: -1})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Run(n); err != nil {
				b.Fatal(err)
			}
			res := s.Result()
			if _, _, _, err := res.At(n); err != nil {
				b.Fatal(err)
			}
			s.Release()
		}
	}
	recordBench(b, "grid_points", float64(len(sweepPopulations)))
}

// BenchmarkSolverSweepPlanned solves the grid the planner's way: one solve
// at the largest population, every point's row read off the shared
// trajectory.
func BenchmarkSolverSweepPlanned(b *testing.B) {
	m := benchSolverModel()
	maxN := sweepPopulations[len(sweepPopulations)-1]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := core.NewMultiServerSolver(m, core.MultiServerOptions{TraceStation: -1})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Run(maxN); err != nil {
			b.Fatal(err)
		}
		res := s.Result()
		for _, n := range sweepPopulations {
			if _, _, _, err := res.At(n); err != nil {
				b.Fatal(err)
			}
		}
		s.Release()
	}
	recordBench(b, "grid_points", float64(len(sweepPopulations)))
}

// BenchmarkSolverSweepFabricLocal measures a warm fabric sweep whose every
// group this node owns: a one-member gateway, driven in-process through
// ServeHTTP, answers solverbench's mixed-rw sweep shape — the VINS model,
// three think times × two app/cpu server counts (6 groups), eight
// populations — with every group a prefix hit of its owned cache entry. The
// cost is the sweep engine, the gateway's per-group routing and the reply's
// encoding; the solver never runs. Steady-state allocs/op are recorded too.
func BenchmarkSolverSweepFabricLocal(b *testing.B) {
	const self = "bench-local:1"
	srv := server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	gw, err := cluster.New(srv, cluster.Config{Self: self, Peers: []string{self}})
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(modelio.SweepRequest{
		SolveRequest: modelio.SolveRequest{Algorithm: modelio.AlgoMultiServer, Model: testbed.VINS().Model(1)},
		Populations:  sweepPopulations,
		ThinkTimes:   []float64{1, 2, 3},
		Servers:      map[string][]int{"app/cpu": {16, 8}},
	})
	if err != nil {
		b.Fatal(err)
	}
	sweep := func() {
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("sweep: %d %s", rec.Code, rec.Body)
		}
	}
	sweep() // solve every group once: the timed sweeps are all prefix hits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
	b.StopTimer()
	allocs := testing.AllocsPerRun(32, sweep)
	recordBenchAllocs(b, "groups", 6, allocs)
}

// benchSolveBodies are /v1/solve bodies shaped like solverbench's: the VINS
// profile's single-user model, plain (multiserver) and with seven
// Chebyshev-node demand samples per station (mvasd). fallback is the mvasd
// body with its last key, maxN, spelled "MaxN": encoding/json accepts the
// case-folded key, but the fast decoder leaves it only there, near the
// body's end, so the entry bounds what a non-canonical body pays: one fast
// attempt plus encoding/json.
func benchSolveBodies(b *testing.B) map[string][]byte {
	p := testbed.VINS()
	model := p.Model(1)
	pts, err := chebyshev.IntegerNodesOn(1, float64(p.MaxUsers), 7)
	if err != nil {
		b.Fatal(err)
	}
	arrays := make([]core.DemandSamples, len(model.Stations))
	for k := range arrays {
		arrays[k] = core.DemandSamples{At: make([]float64, len(pts)), Demands: make([]float64, len(pts))}
	}
	for j, n := range pts {
		for k, d := range p.TrueDemands(n) {
			arrays[k].At[j], arrays[k].Demands[j] = float64(n), d
		}
	}
	samples, err := modelio.FromDemandSamples(model, arrays)
	if err != nil {
		b.Fatal(err)
	}
	marshal := func(r modelio.SolveRequest) []byte {
		body, err := json.Marshal(r)
		if err != nil {
			b.Fatal(err)
		}
		return body
	}
	mvasd := marshal(modelio.SolveRequest{Algorithm: modelio.AlgoMVASD, Model: model, Samples: samples, MaxN: 200})
	return map[string][]byte{
		"multiserver": marshal(modelio.SolveRequest{Algorithm: modelio.AlgoMultiServer, Model: model, MaxN: 200}),
		"mvasd":       mvasd,
		"fallback":    bytes.Replace(mvasd, []byte(`"maxN":`), []byte(`"MaxN":`), 1),
	}
}

// BenchmarkSolverDecode measures decoding one /v1/solve body into a
// request, the first layer of every solve. A repeated body finds its model
// and samples in the decoder's memo; mvasd-miss is the mvasd body with a
// fresh model name and a fresh first demand on every decode, so both values
// miss, are parsed and are stored, and the samples lookup first compares
// every earlier entry, which shares its leading bytes.
func BenchmarkSolverDecode(b *testing.B) {
	bodies := benchSolveBodies(b)
	for _, name := range []string{"multiserver", "mvasd", "mvasd-miss", "fallback"} {
		body, fresh := bodies[name], func() {}
		if name == "mvasd-miss" {
			body, fresh = missBody(b, bodies["mvasd"])
		}
		b.Run(name, func(b *testing.B) {
			decode := func() {
				fresh()
				var req modelio.SolveRequest
				if err := modelio.DecodeSolveRequest(body, &req); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				decode()
			}
			b.StopTimer()
			recordBenchAllocs(b, "body_bytes", float64(len(body)), testing.AllocsPerRun(32, decode))
		})
	}
}

// missBody returns a copy of an mvasd body whose model name ends in eight
// digits and whose first demand's last eight digits are replaced, and a
// function that writes the next counter value into both, so every decode
// sees a model and samples it has not seen before.
func missBody(b *testing.B, mvasd []byte) ([]byte, func()) {
	const name = `"name":"VINS@N=1#`
	body := bytes.Replace(mvasd, []byte(`"name":"VINS@N=1"`), []byte(name+`00000000"`), 1)
	n := bytes.Index(body, []byte(name))
	d := bytes.Index(body, []byte(`"demands":[`))
	if n < 0 || d < 0 || bytes.IndexByte(body[d:], ',') < len(`"demands":[0.00000000`) {
		b.Fatal("mvasd body does not have the expected model name and demands")
	}
	at := []int{n + len(name), d + bytes.IndexByte(body[d:], ',') - 8}
	n = 0
	return body, func() {
		n++
		for _, i := range at {
			for j, v := i+7, n; j >= i; j, v = j-1, v/10 {
				body[j] = byte('0' + v%10)
			}
		}
	}
}

// BenchmarkSolverCacheKey measures hashing a normalized solve request into
// its cache key, the layer between normalize and the cache lookup.
func BenchmarkSolverCacheKey(b *testing.B) {
	bodies := benchSolveBodies(b)
	for _, name := range []string{"multiserver", "mvasd"} {
		var req modelio.SolveRequest
		if err := modelio.DecodeSolveRequest(bodies[name], &req); err != nil {
			b.Fatal(err)
		}
		if err := req.Normalize(); err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			key := func() {
				if _, err := req.CacheKey(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				key()
			}
			b.StopTimer()
			recordBenchAllocs(b, "stations", float64(len(req.Model.Stations)), testing.AllocsPerRun(32, key))
		})
	}
}
