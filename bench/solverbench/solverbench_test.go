package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/modelio"
)

// testMembers is a fixed two-member list: forward's key choice depends on
// the ring, so determinism is asserted for a given member list.
var testMembers = []string{"127.0.0.1:40001", "127.0.0.1:40002"}

// streamDigest hashes a workload's priming requests and first n requests.
func streamDigest(t *testing.T, workload string, seed int64, n int) [sha256.Size]byte {
	t.Helper()
	gen, err := newGenerator(workload, seed, testMembers)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, r := range gen.prime() {
		h.Write([]byte(r.path()))
		h.Write(r.body)
	}
	for i := 0; i < n; i++ {
		r := gen.next()
		h.Write([]byte(r.path()))
		h.Write(r.body)
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestStreamIsSeeded(t *testing.T) {
	for _, w := range workloadNames {
		a, b := streamDigest(t, w, 1, 500), streamDigest(t, w, 1, 500)
		if a != b {
			t.Errorf("%s: seed 1 gave two different streams", w)
		}
		if c := streamDigest(t, w, 2, 500); c == a {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w)
		}
	}
}

func normalizedKey(t *testing.T, body []byte) string {
	t.Helper()
	var req modelio.SolveRequest
	if err := decodeStrict(body, &req); err != nil {
		t.Fatal(err)
	}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	key, err := req.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func TestColdDeepNeverRepeatsAKey(t *testing.T) {
	gen, err := newGenerator(coldDeep, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for i := 0; i < 2000; i++ {
		r := gen.next()
		key := normalizedKey(t, r.body)
		if j, dup := seen[key]; dup {
			t.Fatalf("requests %d and %d share cache key %s", j, i, key)
		}
		seen[key] = i
		if r.maxN%coldDeepStride != 0 || r.v.decimate != coldDeepStride || r.every != 4 {
			t.Fatalf("request %d: maxN %d decimate %d every %d", i, r.maxN, r.v.decimate, r.every)
		}
	}
}

func TestHitDenseStaysInsideThePrimedPrefix(t *testing.T) {
	gen, err := newGenerator(hitDense, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range gen.prime() {
		if r.maxN != hitDenseN {
			t.Fatalf("priming at maxN %d, want %d", r.maxN, hitDenseN)
		}
	}
	for i := 0; i < 10000; i++ {
		if r := gen.next(); r.maxN > hitDenseN || r.maxN < 100 || r.every != 0 {
			t.Fatalf("request %d asks maxN %d every %d", i, r.maxN, r.every)
		}
	}
}

func TestForwardKeysAreOwnedBySecondMember(t *testing.T) {
	gen, err := newGenerator(forward, 1, testMembers)
	if err != nil {
		t.Fatal(err)
	}
	ring := cluster.NewRing(testMembers, cluster.DefaultVirtualNodes)
	primes := gen.prime()
	if len(primes) != forwardKeys {
		t.Fatalf("%d forward keys, want %d", len(primes), forwardKeys)
	}
	for _, r := range primes {
		if owner := ring.Owner(normalizedKey(t, r.body)); owner != testMembers[1] {
			t.Errorf("key of %s is owned by %s", r.v.model.Name, owner)
		}
	}
}

// serve answers r on an in-process solverd and returns the reply body.
func serve(t *testing.T, h http.Handler, r *request) []byte {
	t.Helper()
	rec, err := serveHTTP(h, nil, "test", r, r.body, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Body.Bytes()
}

// TestOracleAgreesWithServer runs the start of every workload's stream
// through an in-process solverd and checks each reply's digest against the
// oracle: solves dense and decimated, prefix hits, extends and sweeps.
func TestOracleAgreesWithServer(t *testing.T) {
	for _, w := range workloadNames {
		gen, err := newGenerator(w, 3, testMembers)
		if err != nil {
			t.Fatal(err)
		}
		h := newDefaultServer("test").Handler()
		for _, r := range gen.prime() {
			serve(t, h, r)
		}
		st := &stream{gen: gen}
		n := 40
		if w == mixedRW {
			n = 400 // enough for extends, sweeps and a retired key
		}
		got := make(map[int]uint32)
		for i := 0; i < n; i++ {
			r := st.next()
			crc, _, err := replyDigest(r.sweep, serve(t, h, r))
			if err != nil {
				t.Fatalf("%s request %d: %v", w, r.idx, err)
			}
			got[r.idx] = crc
		}
		sweeps := 0
		for idx, e := range expect(st.log) {
			if e.err != nil {
				t.Fatalf("%s request %d: oracle: %v", w, idx, e.err)
			}
			if got[idx] != e.crc {
				t.Errorf("%s request %d (%s): reply digest %08x, oracle %08x", w, idx, st.log[idx].path(), got[idx], e.crc)
			}
			if st.log[idx].sweep {
				sweeps++
			}
		}
		if w == mixedRW && sweeps == 0 {
			t.Errorf("mixed-rw stream of %d requests holds no sweep", n)
		}
	}
}

func TestOracleFlagsOneFlippedFloat(t *testing.T) {
	gen, err := newGenerator(hitDense, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := newDefaultServer("test")
	r := gen.next()
	r.idx = 0
	var req modelio.SolveRequest
	if err := decodeStrict(r.body, &req); err != nil {
		t.Fatal(err)
	}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Solve(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	want := expect([]*request{r})[0]
	digestOf := func() uint32 {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(resp); err != nil {
			t.Fatal(err)
		}
		crc, _, err := replyDigest(false, buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return crc
	}
	if got := digestOf(); got != want.crc {
		t.Fatalf("unmodified reply digest %08x, oracle %08x", got, want.crc)
	}
	x := resp.Trajectory.X
	k := len(x) / 2
	x[k] = math.Nextafter(x[k], math.Inf(1))
	if got := digestOf(); got == want.crc {
		t.Fatalf("reply with X[%d] one ulp off still matches the oracle", k)
	}
}

func TestCachedFlagRuleAllowsOnlyRequestsAnotherCouldServe(t *testing.T) {
	v := &variant{}
	ms := time.Millisecond
	mk := func(idx, maxN int, start, lat time.Duration) sample {
		return sample{req: &request{idx: idx, v: v, maxN: maxN, expect: cachedFalse}, start: start, lat: lat}
	}
	got := mayBeServedByAnother([]sample{
		mk(0, 200, 0, 4*ms),      // request 1 overlaps it (and asks further)
		mk(1, 300, 2*ms, 5*ms),   // overlaps request 0, which may lead a flight it joins
		mk(2, 250, 20*ms, 10*ms), // alone in time, but request 1 asked further before it was sent
		mk(3, 400, 40*ms, 1*ms),  // alone in time and the first to ask this far
	})
	want := map[int]bool{0: true, 1: true, 2: true, 3: false}
	for idx, w := range want {
		if got[idx] != w {
			t.Errorf("request %d: may be served by another = %v, want %v", idx, got[idx], w)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6}, // Python extrapolates past two values
	} {
		q1, m, q3 := quartiles(c.in)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// benchmarkFile mirrors the root BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != int(defaultWindow/time.Second) {
		t.Errorf("run_seconds %d, code window %v", f.RunSeconds, defaultWindow)
	}
	if len(f.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, code has %d", len(f.Workloads), len(workloadNames))
	}
	for i, w := range f.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" {
			t.Errorf("workload %d: %q", i, w.Name)
		}
	}
	if len(f.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end-to-end metrics, code has %d", len(f.EndToEnd), len(e2eMetrics))
	}
	for i, m := range f.EndToEnd {
		d := e2eMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, m, d)
		}
	}
	if len(f.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics, code has %d", len(f.PerLayer), len(layerMetrics))
	}
	for i, m := range f.PerLayer {
		d := layerMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, m, d)
		}
	}
}

func writeResults(t *testing.T, dir, name string, throughputs ...float64) string {
	t.Helper()
	var f resultsFile
	for _, x := range throughputs {
		m := map[string]float64{"error_rate": 0}
		for _, d := range e2eMetrics {
			m[d.name] = 1
		}
		m["throughput_rps"] = x
		f.Runs = append(f.Runs, &runRecord{Workloads: map[string]*workloadResult{hitDense: {Metrics: m}}})
	}
	b, err := json.Marshal(&f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareGatesMediansOnTheirBounds(t *testing.T) {
	dir := t.TempDir()
	// Throughput 5% over its bound below the baseline's 1000 req/s.
	worse := 1000 * (1 - e2eMetrics[0].bound - 0.05)
	base := writeResults(t, dir, "a.json", 1000, 1010, 990)
	same := writeResults(t, dir, "b.json", 1001, 995, 1005)
	slower := writeResults(t, dir, "c.json", worse, worse+5, worse-5)
	var out bytes.Buffer
	if code := compareMain([]string{base, same}, &out); code != 0 {
		t.Errorf("equal sets: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain([]string{base, slower}, &out); code != 1 || !bytes.Contains(out.Bytes(), []byte("REGRESSED")) {
		t.Errorf("throughput past its bound: exit %d\n%s", code, out.String())
	}
}

// TestSmoke builds solverd and runs every workload for one second, traced,
// through the package API.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds solverd and runs every workload")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Run(context.Background(), Options{
		Root:       root,
		BuildDir:   t.TempDir(),
		OutDir:     t.TempDir(),
		Seed:       1,
		Window:     time.Second,
		Warmup:     200 * time.Millisecond,
		Setups:     1,
		Trace:      true,
		TraceScale: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		wr := rec.Workloads[w]
		if wr == nil {
			t.Fatalf("%s: no result", w)
		}
		if wr.Failed != 0 || wr.Metrics["error_rate"] != 0 {
			t.Errorf("%s: %d of %d failed: %v", w, wr.Failed, wr.Attempted, wr.Failures)
		}
		for _, d := range e2eMetrics {
			if _, ok := wr.Metrics[d.name]; !ok {
				t.Errorf("%s: no %s", w, d.name)
			}
		}
		for _, d := range layerMetrics {
			if _, ok := wr.Layers[d.name]; !ok {
				t.Errorf("%s: no %s", w, d.name)
			}
		}
	}
	if line, correct := resultLine(rec, workloadNames, true); !correct {
		t.Errorf("result line reports a failure: %s", line)
	}
}
