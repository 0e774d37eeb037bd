package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/modelio"
)

// TestDeepChunks checks the chunk planner's geometry: chunks cover (0, maxN]
// contiguously, never exceed the part count, and every interior boundary is
// a stride multiple — the alignment that makes the distributed row set
// identical to a single-node decimated solve.
func TestDeepChunks(t *testing.T) {
	cases := []struct{ maxN, stride, parts int }{
		{2000, 7, 3}, {1, 1, 3}, {100, 100, 4}, {1000, 3, 1},
		{999, 10, 5}, {10, 1, 16}, {1_000_000, 245, 3},
	}
	for _, tc := range cases {
		chunks := deepChunks(tc.maxN, tc.stride, tc.parts)
		if len(chunks) == 0 || len(chunks) > tc.parts {
			t.Fatalf("deepChunks(%d,%d,%d) = %v: want 1..%d chunks",
				tc.maxN, tc.stride, tc.parts, chunks, tc.parts)
		}
		prev := 0
		for i, ch := range chunks {
			if ch[0] != prev || ch[1] <= ch[0] {
				t.Fatalf("deepChunks(%d,%d,%d) chunk %d = %v: not contiguous after %d",
					tc.maxN, tc.stride, tc.parts, i, ch, prev)
			}
			if i < len(chunks)-1 && ch[1]%tc.stride != 0 {
				t.Fatalf("deepChunks(%d,%d,%d) interior boundary %d not stride-aligned",
					tc.maxN, tc.stride, tc.parts, ch[1])
			}
			prev = ch[1]
		}
		if prev != tc.maxN {
			t.Fatalf("deepChunks(%d,%d,%d) ends at %d", tc.maxN, tc.stride, tc.parts, prev)
		}
	}
}

// deepStream is one parsed /v1/solve?deep=1 NDJSON response.
type deepStream struct {
	header  modelio.DeepHeader
	rows    []modelio.DeepRow
	trailer *modelio.DeepTrailer
	errLine string
}

// deepSolve posts a deep solve to addr and parses the NDJSON stream.
func deepSolve(t *testing.T, addr string, req *modelio.SolveRequest) *deepStream {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/v1/solve?deep=1", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deep solve: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("deep solve: content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatal("deep solve: empty stream")
	}
	out := &deepStream{}
	if err := json.Unmarshal(sc.Bytes(), &out.header); err != nil {
		t.Fatalf("deep solve: decoding header: %v", err)
	}
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			N     int    `json:"n"`
			Done  bool   `json:"done"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("deep solve: bad stream line %q: %v", line, err)
		}
		switch {
		case probe.Error != "":
			out.errLine = probe.Error
		case probe.Done:
			var tr modelio.DeepTrailer
			if err := json.Unmarshal(line, &tr); err != nil {
				t.Fatal(err)
			}
			out.trailer = &tr
		default:
			var row modelio.DeepRow
			if err := json.Unmarshal(line, &row); err != nil {
				t.Fatal(err)
			}
			out.rows = append(out.rows, row)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// deepReference solves the same request decimated on one in-process solver
// and returns its stored rows.
func deepReference(t *testing.T, req *modelio.SolveRequest) *core.Result {
	t.Helper()
	m := req.Model
	sol, err := core.NewMultiServerSolver(m, core.MultiServerOptions{TraceStation: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sol.Release)
	if req.Decimate > 1 {
		if err := sol.Decimate(req.Decimate); err != nil {
			t.Fatal(err)
		}
	}
	if err := sol.Run(req.MaxN); err != nil {
		t.Fatal(err)
	}
	return sol.Result()
}

// assertDeepMatches checks a distributed deep stream against the single-node
// decimated reference, bit for bit.
func assertDeepMatches(t *testing.T, got *deepStream, want *core.Result) {
	t.Helper()
	if got.errLine != "" {
		t.Fatalf("deep stream carries error %q", got.errLine)
	}
	if got.trailer == nil || !got.trailer.Done {
		t.Fatal("deep stream has no trailer: incomplete")
	}
	if got.trailer.Rows != len(got.rows) {
		t.Fatalf("trailer counts %d rows, stream carried %d", got.trailer.Rows, len(got.rows))
	}
	if len(got.rows) != want.Len() {
		t.Fatalf("distributed solve stored %d rows, single-node stored %d", len(got.rows), want.Len())
	}
	for i, row := range got.rows {
		if row.N != want.N[i] {
			t.Fatalf("row %d is population %d, want %d", i, row.N, want.N[i])
		}
		if row.X != want.X[i] || row.R != want.R[i] || row.Cycle != want.Cycle[i] {
			t.Fatalf("n=%d: distributed row differs from single-node: X %v vs %v, R %v vs %v",
				row.N, row.X, want.X[i], row.R, want.R[i])
		}
		for k := range want.StationNames {
			if row.QueueLen[k] != want.QueueLenRow(i)[k] || row.Util[k] != want.UtilRow(i)[k] ||
				row.Residence[k] != want.ResidenceRow(i)[k] || row.Demands[k] != want.DemandsRow(i)[k] {
				t.Fatalf("n=%d station %d: distributed row differs from single-node", row.N, k)
			}
		}
	}
}

// TestClusterDeepSolve pipelines a decimated deep solve across three nodes
// and checks the streamed rows are bit-identical to a single-node decimated
// solve — the checkpoint handoff between members preserves the recursion
// exactly. A stride that does not divide maxN exercises the final-row commit.
func TestClusterDeepSolve(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	req := solveRequest(0.75, 2000)
	req.Decimate = 7

	got := deepSolve(t, nodes[0].addr, req)
	if got.header.Stride != 7 || got.header.MaxN != 2000 {
		t.Fatalf("header stride/maxN = %d/%d, want 7/2000", got.header.Stride, got.header.MaxN)
	}
	if got.trailer == nil || got.trailer.Chunks != 3 {
		t.Fatalf("trailer = %+v, want 3 chunks across 3 members", got.trailer)
	}
	assertDeepMatches(t, got, deepReference(t, req))

	// A shallow request with no explicit decimate runs dense (auto stride 1).
	shallow := solveRequest(0.75, 50)
	gotShallow := deepSolve(t, nodes[0].addr, shallow)
	if gotShallow.header.Stride != 1 {
		t.Fatalf("auto stride for maxN 50 = %d, want 1", gotShallow.header.Stride)
	}
	assertDeepMatches(t, gotShallow, deepReference(t, shallow))
}

// TestClusterDeepSolveMemberDeath kills the member assigned the middle chunk
// and checks the pipeline completes bit-identically anyway. Probing is
// disabled, so the coordinator discovers the death only when the chunk
// dispatch fails — mid-pipeline, with chunk 0 already solved and its
// checkpoint shipped — and must resume the dead member's chunk from that same
// checkpoint on the next candidate.
func TestClusterDeepSolveMemberDeath(t *testing.T) {
	nodes := startCluster(t, 3, func(c *Config) {
		c.ProbeInterval = time.Hour
	})
	entry := nodes[0]

	// Find a request whose ring walk assigns the middle chunk (index 1) to a
	// remote member, so its death forces a remote dispatch failure.
	var req *modelio.SolveRequest
	var victim *testNode
	for i := 0; i < 400 && victim == nil; i++ {
		cand := solveRequest(0.3+float64(i)*0.01, 2000)
		cand.Decimate = 7
		members := entry.gw.Ring().Owners(keyOf(t, cand), 3)
		if len(members) != 3 || members[1] == entry.addr {
			continue
		}
		for _, n := range nodes {
			if n.addr == members[1] {
				req, victim = cand, n
			}
		}
	}
	if victim == nil {
		t.Fatal("could not find a key whose middle chunk lands on a remote member")
	}
	victim.kill(t)

	got := deepSolve(t, entry.addr, req)
	assertDeepMatches(t, got, deepReference(t, req))

	// The coordinator must have recorded the failed dispatch to the dead
	// member before failing over.
	metrics := getBody(t, "http://"+entry.addr+"/metrics")
	if fails := metricValue(t, metrics, "solverd_cluster_forward_failures_total"); fails < 1 {
		t.Fatalf("no forward failure recorded for the dead member (got %v)", fails)
	}
}
