package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
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

// entryFor returns req's cache entry.
func entryFor(t *testing.T, s *Server, req modelio.SolveRequest) *cacheEntry {
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
	return e
}

// memoRows reports how many rows req's cache entry has memoized densely.
func memoRows(t *testing.T, s *Server, req modelio.SolveRequest) int {
	t.Helper()
	return entryFor(t, s, req).text.Load().Rows()
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

// expectReply asserts a reply's cached flag and that its trajectory bytes
// equal a cold solve's.
func expectReply(t *testing.T, h http.Handler, cold coldReplies, req modelio.SolveRequest, wantCached bool) {
	t.Helper()
	cached, got := solveReply(t, h, req)
	if cached != wantCached {
		t.Fatalf("maxN=%d every=%d: cached=%v, want %v", req.MaxN, req.Every, cached, wantCached)
	}
	if want := cold.traj(req); !bytes.Equal(got, want) {
		t.Fatalf("maxN=%d every=%d: trajectory differs from a cold solve:\n got %s\nwant %s", req.MaxN, req.Every, got, want)
	}
}

// TestMemoHitsMatchColdReplies: every population at or below the cached one
// is served from the entry's memos, byte-identical to a cold solve — dense
// replies and decimated (every > 1) ones alike. Dense replies share a memo of
// the whole snapshot; strided ones a memo of every seventh row, built only as
// far as the largest of them needed.
func TestMemoHitsMatchColdReplies(t *testing.T) {
	s := New(Config{Logger: quietLogger()})
	h, cold := s.Handler(), newColdReplies(t)
	const cachedN = 60
	solveReply(t, h, modelio.SolveRequest{Model: testModel(), MaxN: cachedN})
	e := entryFor(t, s, modelio.SolveRequest{Model: testModel(), MaxN: cachedN})
	if e.text.Load() != nil || e.strided.Load() != nil {
		t.Fatal("a miss built a memo")
	}
	for maxN := 1; maxN <= cachedN; maxN++ {
		expectHit(t, h, cold, modelio.SolveRequest{Model: testModel(), MaxN: maxN})
		expectHit(t, h, cold, modelio.SolveRequest{Model: testModel(), MaxN: maxN, Every: 1})
		expectHit(t, h, cold, modelio.SolveRequest{Model: testModel(), MaxN: maxN, Every: 7})
	}
	if rows := e.text.Load().Rows(); rows != cachedN {
		t.Errorf("dense memo covers %d rows, want the whole %d-row snapshot", rows, cachedN)
	}
	if st := e.strided.Load(); st.Stride() != 7 || st.Rows() != (cachedN-1)/7+1 {
		t.Errorf("strided memo: stride %d over %d rows, want stride 7 over populations 1, 8, …, 57 (%d rows)",
			st.Stride(), st.Rows(), (cachedN-1)/7+1)
	}
}

// TestMemoAfterExtend: an in-place extend publishes a longer snapshot and
// its own reply extends the dense memo (copying the old text) to it; the
// hits that follow are served from that memo unchanged and still match a
// cold solve row for row.
func TestMemoAfterExtend(t *testing.T) {
	s := New(Config{Logger: quietLogger()})
	h, cold := s.Handler(), newColdReplies(t)
	req := func(n int) modelio.SolveRequest { return modelio.SolveRequest{Model: testModel(), MaxN: n} }
	solveReply(t, h, req(30))
	expectHit(t, h, cold, req(20))
	if rows := memoRows(t, s, req(30)); rows != 30 {
		t.Fatalf("memo covers %d rows after the first hit, want 30", rows)
	}
	expectReply(t, h, cold, req(50), false)
	e := entryFor(t, s, req(50))
	memo := e.text.Load()
	if memo.Rows() != 50 {
		t.Fatalf("memo covers %d rows after the extend, want 50", memo.Rows())
	}
	expectHit(t, h, cold, req(25))
	expectHit(t, h, cold, req(45))
	expectHit(t, h, cold, req(50))
	if e.text.Load() != memo {
		t.Error("a hit the memo covers rebuilt it")
	}
}

// TestStridedRepliesMatchColdReplies: for each stride, hits, an extend and
// coalesced waiters on one dense entry are served from its strided memo and
// match a cold solve byte for byte, while the first solve builds no memo.
func TestStridedRepliesMatchColdReplies(t *testing.T) {
	for _, every := range []int{2, 4, 7, 10} {
		t.Run(strconv.Itoa(every), func(t *testing.T) {
			var hold atomic.Bool
			started, release := make(chan struct{}), make(chan struct{})
			s := New(Config{Logger: quietLogger()})
			s.testHookSolveStart = func(context.Context) {
				if hold.Load() {
					close(started)
					<-release
				}
			}
			h, cold := s.Handler(), newColdReplies(t)
			req := func(n int) modelio.SolveRequest {
				return modelio.SolveRequest{Model: testModel(), MaxN: n, Every: every}
			}

			expectReply(t, h, cold, req(30), false)
			e := entryFor(t, s, req(30))
			if e.text.Load() != nil || e.strided.Load() != nil {
				t.Fatal("a miss built a memo")
			}
			for maxN := 1; maxN <= 30; maxN++ {
				expectReply(t, h, cold, req(maxN), true)
			}
			expectReply(t, h, cold, req(55), false) // extend
			if st := e.strided.Load(); st.Stride() != every || st.Rows() != 54/every+1 {
				t.Fatalf("after the extend: stride %d over %d rows, want %d over %d", st.Stride(), st.Rows(), every, 54/every+1)
			}
			expectReply(t, h, cold, req(41), true)

			// A leader extends to 90 while waiters at 70 and 90 queue on the
			// entry lock; they are answered from its run.
			hold.Store(true)
			waiters := []int{70, 90}
			replies := make([][]byte, len(waiters))
			var wg sync.WaitGroup
			serve := func(maxN int, out *[]byte) {
				defer wg.Done()
				body, _ := json.Marshal(req(maxN))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
				*out = rec.Body.Bytes()
			}
			var leader []byte
			wg.Add(1)
			go serve(90, &leader)
			<-started
			hold.Store(false)
			for i, n := range waiters {
				wg.Add(1)
				go serve(n, &replies[i])
			}
			waitCond(t, func() bool { return s.Admission().Stats().CoalesceWaiters == len(waiters) })
			close(release)
			wg.Wait()
			if st := s.Admission().Stats(); st.Coalesced != uint64(len(waiters)) {
				t.Fatalf("%d replies coalesced, want %d", st.Coalesced, len(waiters))
			}
			for i, n := range append(waiters, 90) {
				body := leader
				if i < len(waiters) {
					body = replies[i]
				}
				var out struct {
					Cached     bool            `json:"cached"`
					Trajectory json.RawMessage `json:"trajectory"`
				}
				if err := json.Unmarshal(body, &out); err != nil {
					t.Fatalf("maxN=%d: %v: %s", n, err, body)
				}
				if out.Cached != (i < len(waiters)) {
					t.Errorf("maxN=%d: cached=%v", n, out.Cached)
				}
				if want := cold.traj(req(n)); !bytes.Equal(out.Trajectory, want) {
					t.Errorf("maxN=%d: trajectory differs from a cold solve:\n got %s\nwant %s", n, out.Trajectory, want)
				}
			}
			if e.text.Load() != nil {
				t.Error("strided traffic built a dense memo")
			}
		})
	}
}

// TestAlternatingStridesFormatNoMoreRows serves one key with alternating
// strides, dense replies and an extend among them, and counts the rows each
// reply formats: the rows its memo gained plus the reply rows the memo does
// not hold. No reply formats more than the parent design did, which
// formatted every row of a strided, extended or coalesced reply and, for a
// dense hit, extended its one dense memo to the whole snapshot; and every
// reply still matches a cold solve.
func TestAlternatingStridesFormatNoMoreRows(t *testing.T) {
	s := New(Config{Logger: quietLogger()})
	h, cold := s.Handler(), newColdReplies(t)
	type step struct{ every, maxN int }
	steps := []step{
		{10, 200}, {4, 120}, {0, 150}, {7, 200}, {2, 40}, {10, 90}, {10, 180},
		{1, 200}, {4, 160}, {4, 60}, {7, 250}, {0, 250}, {2, 250}, {10, 250}, {3, 17},
	}
	var e *cacheEntry
	solvedN, parentDense := 0, 0 // the entry's solved population; the parent's dense memo rows
	for i, st := range steps {
		req := modelio.SolveRequest{Model: testModel(), MaxN: st.maxN, Every: st.every}
		var denseBefore, stridedBefore *modelio.RowText
		if e != nil {
			denseBefore, stridedBefore = e.text.Load(), e.strided.Load()
		}
		cached, got := solveReply(t, h, req)
		if want := cold.traj(req); !bytes.Equal(got, want) {
			t.Fatalf("step %d (every=%d maxN=%d): trajectory differs from a cold solve", i, st.every, st.maxN)
		}
		if e == nil {
			e = entryFor(t, s, req)
		}
		var tr modelio.Trajectory
		if err := json.Unmarshal(got, &tr); err != nil {
			t.Fatal(err)
		}
		every, before, after := max(st.every, 1), stridedBefore, e.strided.Load()
		if every == 1 {
			before, after = denseBefore, e.text.Load()
		}
		formatted := len(tr.N) // the first solve's reply has no memo
		if i > 0 {
			gained := after.Rows()
			if before.Stride() == after.Stride() {
				gained -= before.Rows()
			}
			formatted = gained + len(tr.N) - min(after.Rows(), (st.maxN-1)/every+1)
			if after.Stride() != every {
				t.Errorf("step %d: memo at stride %d for an every=%d reply", i, after.Stride(), st.every)
			}
		}
		solvedN = max(solvedN, st.maxN)
		parent := len(tr.N)
		if every == 1 && cached {
			parent = 0
			if parentDense < st.maxN {
				parent, parentDense = solvedN-parentDense, solvedN
			}
		}
		if formatted > parent {
			t.Errorf("step %d (every=%d maxN=%d): formatted %d rows, the parent %d", i, st.every, st.maxN, formatted, parent)
		}
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
// and extends, dense and at two strides, so memo builds race each other,
// strided memos replace each other, and all of them race the snapshot they
// read; under -race this also checks the memos' publication. Every reply
// must still match a cold solve.
func TestMemoConcurrentHitsAndExtends(t *testing.T) {
	s := New(Config{Workers: 4, Logger: quietLogger()})
	h, cold := s.Handler(), newColdReplies(t)
	const maxN = 120
	strides := []int{0, 4, 7}
	want := make(map[[2]int][]byte)
	for _, every := range strides {
		for n := 1; n <= maxN; n++ {
			want[[2]int{every, n}] = cold.traj(modelio.SolveRequest{Model: testModel(), MaxN: n, Every: every})
		}
	}
	solveReply(t, h, modelio.SolveRequest{Model: testModel(), MaxN: 10})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				n, every := 1+(g*37+i*11)%maxN, strides[(g+i)%len(strides)]
				if g%4 == 0 {
					n = 10 + (maxN-10)*i/39 // extenders walk the frontier up
				}
				body, _ := json.Marshal(modelio.SolveRequest{Model: testModel(), MaxN: n, Every: every})
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
				var out struct {
					Trajectory json.RawMessage `json:"trajectory"`
				}
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &out) != nil {
					errs <- fmt.Errorf("maxN=%d every=%d: %d %s", n, every, rec.Code, rec.Body)
					return
				}
				if !bytes.Equal(out.Trajectory, want[[2]int{every, n}]) {
					errs <- fmt.Errorf("maxN=%d every=%d: trajectory differs from a cold solve", n, every)
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
