package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"repro/internal/modelio"
)

func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// solveReply posts req to h's /v1/solve in-process and returns the reply's
// cached flag and raw trajectory bytes, checking the status and that the
// body went out with a matching Content-Length.
func solveReply(t *testing.T, h http.Handler, req modelio.SolveRequest) (bool, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("solve maxN=%d: %d %s", req.MaxN, rec.Code, rec.Body)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
	}
	var out struct {
		Cached     bool            `json:"cached"`
		Trajectory json.RawMessage `json:"trajectory"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out.Cached, out.Trajectory
}

// coldReplies answers requests the way a fresh node does: a cache-less
// server solves every request cold and never builds a row text memo.
type coldReplies struct {
	t *testing.T
	h http.Handler
}

func newColdReplies(t *testing.T) coldReplies {
	return coldReplies{t: t, h: New(Config{CacheSize: -1, Logger: quietLogger()}).Handler()}
}

func (c coldReplies) traj(req modelio.SolveRequest) []byte {
	c.t.Helper()
	_, traj := solveReply(c.t, c.h, req)
	return traj
}

// memoRows reports how many rows req's cache entry has memoized.
func memoRows(t *testing.T, s *Server, req modelio.SolveRequest) int {
	t.Helper()
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	key, err := req.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	s.cache.mu.Lock()
	e := s.cache.items[key]
	s.cache.mu.Unlock()
	if e == nil {
		t.Fatalf("no cache entry for maxN=%d", req.MaxN)
	}
	return e.text.Load().Rows()
}

// expectHit asserts a memo-eligible prefix hit and that its trajectory bytes
// equal a cold solve's.
func expectHit(t *testing.T, h http.Handler, cold coldReplies, req modelio.SolveRequest) {
	t.Helper()
	cached, got := solveReply(t, h, req)
	if !cached {
		t.Fatalf("maxN=%d was not a hit", req.MaxN)
	}
	if want := cold.traj(req); !bytes.Equal(got, want) {
		t.Fatalf("maxN=%d: hit trajectory differs from a cold solve:\n got %s\nwant %s", req.MaxN, got, want)
	}
}

// TestMemoHitsMatchColdReplies: every population at or below the cached one
// is served from the entry's memo, byte-identical to a cold solve — dense
// replies and decimated (every > 1) ones alike.
func TestMemoHitsMatchColdReplies(t *testing.T) {
	s := New(Config{Logger: quietLogger()})
	h, cold := s.Handler(), newColdReplies(t)
	const cachedN = 60
	solveReply(t, h, modelio.SolveRequest{Model: testModel(), MaxN: cachedN})
	if rows := memoRows(t, s, modelio.SolveRequest{Model: testModel(), MaxN: cachedN}); rows != 0 {
		t.Fatalf("a miss built a %d-row memo", rows)
	}
	for maxN := 1; maxN <= cachedN; maxN++ {
		expectHit(t, h, cold, modelio.SolveRequest{Model: testModel(), MaxN: maxN})
		expectHit(t, h, cold, modelio.SolveRequest{Model: testModel(), MaxN: maxN, Every: 1})
		expectHit(t, h, cold, modelio.SolveRequest{Model: testModel(), MaxN: maxN, Every: 7})
	}
	if rows := memoRows(t, s, modelio.SolveRequest{Model: testModel(), MaxN: cachedN}); rows != cachedN {
		t.Errorf("memo covers %d rows, want the whole %d-row snapshot", rows, cachedN)
	}
}

// TestMemoAfterExtend: an in-place extend publishes a longer snapshot; the
// next hit past the memo extends it (copying the old text) and still matches
// a cold solve row for row.
func TestMemoAfterExtend(t *testing.T) {
	s := New(Config{Logger: quietLogger()})
	h, cold := s.Handler(), newColdReplies(t)
	req := func(n int) modelio.SolveRequest { return modelio.SolveRequest{Model: testModel(), MaxN: n} }
	solveReply(t, h, req(30))
	expectHit(t, h, cold, req(20))
	if rows := memoRows(t, s, req(30)); rows != 30 {
		t.Fatalf("memo covers %d rows after the first hit, want 30", rows)
	}
	if cached, _ := solveReply(t, h, req(50)); cached {
		t.Fatal("extend reported a hit")
	}
	if rows := memoRows(t, s, req(50)); rows != 30 {
		t.Fatalf("the extend changed the memo to %d rows", rows)
	}
	expectHit(t, h, cold, req(25)) // still covered: no rebuild
	expectHit(t, h, cold, req(45))
	expectHit(t, h, cold, req(50))
	if rows := memoRows(t, s, req(50)); rows != 50 {
		t.Errorf("memo covers %d rows after the extend, want 50", rows)
	}
}

// TestMemoAfterEvictionAndRemove: a memo lives and dies with its entry —
// after LRU eviction or estimate invalidation (solveCache.remove) the key's
// new entry starts without one and serves the re-solved rows correctly.
func TestMemoAfterEvictionAndRemove(t *testing.T) {
	s := New(Config{CacheSize: 1, Logger: quietLogger()})
	h, cold := s.Handler(), newColdReplies(t)
	a := func(n int) modelio.SolveRequest { return modelio.SolveRequest{Model: testModel(), MaxN: n} }
	other := testModel()
	other.Name = "evictor"

	solveReply(t, h, a(30))
	expectHit(t, h, cold, a(20))
	solveReply(t, h, modelio.SolveRequest{Model: other, MaxN: 10}) // evicts a's entry
	if cached, _ := solveReply(t, h, a(40)); cached {
		t.Fatal("re-solve after eviction reported a hit")
	}
	if rows := memoRows(t, s, a(40)); rows != 0 {
		t.Fatalf("re-solved entry inherited a %d-row memo", rows)
	}
	expectHit(t, h, cold, a(35))
	expectHit(t, h, cold, a(40))

	key := func() string {
		r := a(40)
		if err := r.Normalize(); err != nil {
			t.Fatal(err)
		}
		k, err := r.CacheKey()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}()
	if !s.cache.remove(key) {
		t.Fatal("remove found no entry")
	}
	if cached, _ := solveReply(t, h, a(25)); cached {
		t.Fatal("re-solve after remove reported a hit")
	}
	expectHit(t, h, cold, a(12))
	expectHit(t, h, cold, a(25))
	if rows := memoRows(t, s, a(25)); rows != 25 {
		t.Errorf("memo after remove covers %d rows, want 25", rows)
	}
}

// TestMemoConcurrentHitsAndExtends hammers one key with racing prefix hits
// and extends, so memo builds race each other and the snapshot they read;
// under -race this also checks the memo's publication. Every reply must
// still match a cold solve.
func TestMemoConcurrentHitsAndExtends(t *testing.T) {
	s := New(Config{Workers: 4, Logger: quietLogger()})
	h, cold := s.Handler(), newColdReplies(t)
	const maxN = 120
	want := make([][]byte, maxN+1)
	for n := 1; n <= maxN; n++ {
		want[n] = cold.traj(modelio.SolveRequest{Model: testModel(), MaxN: n})
	}
	solveReply(t, h, modelio.SolveRequest{Model: testModel(), MaxN: 10})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				n := 1 + (g*37+i*11)%maxN
				if g%4 == 0 {
					n = 10 + (maxN-10)*i/39 // extenders walk the frontier up
				}
				body, _ := json.Marshal(modelio.SolveRequest{Model: testModel(), MaxN: n})
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
				var out struct {
					Trajectory json.RawMessage `json:"trajectory"`
				}
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &out) != nil {
					errs <- fmt.Errorf("maxN=%d: %d %s", n, rec.Code, rec.Body)
					return
				}
				if !bytes.Equal(out.Trajectory, want[n]) {
					errs <- fmt.Errorf("maxN=%d: trajectory differs from a cold solve", n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestWriteJSONEncodeFailureIs500: a reply that cannot be encoded (here a
// NaN, which JSON cannot carry) goes out as a 500 JSON error with a correct
// Content-Length — never as a 200 with an empty body — whether it encodes
// through encoding/json or through SolveResponse.AppendJSON.
func TestWriteJSONEncodeFailureIs500(t *testing.T) {
	s := New(Config{Logger: quietLogger()})
	for name, v := range map[string]any{
		"encoding/json": map[string]float64{"x": math.NaN()},
		"AppendJSON":    &modelio.SolveResponse{ElapsedMS: math.Inf(1)},
	} {
		t.Run(name, func(t *testing.T) {
			h := s.Instrument("encode-failure", http.MethodGet, func(w http.ResponseWriter, _ *http.Request) {
				s.WriteJSON(w, http.StatusOK, v)
			})
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
			if rec.Code != http.StatusInternalServerError {
				t.Fatalf("status %d, want 500 (body %q)", rec.Code, rec.Body)
			}
			var body errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
				t.Fatalf("body %q is not a JSON error (%v)", rec.Body, err)
			}
			if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
				t.Errorf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q", ct)
			}
		})
	}
}
