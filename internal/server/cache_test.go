package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
)

// exactBuilder returns a build callback producing a fresh exact-MVA solver
// over the shared test model, counting constructions.
func exactBuilder(builds *atomic.Int64) func() (*core.Solver, error) {
	return func() (*core.Solver, error) {
		if builds != nil {
			builds.Add(1)
		}
		return core.NewExactMVASolver(testModel())
	}
}

// runSolver is the plain run callback: no pool, no metrics, just the solve.
func runSolver(ctx context.Context, s *core.Solver, maxN int) error {
	return s.RunContext(ctx, maxN)
}

func mustDo(t *testing.T, c *solveCache, key string, maxN int) (*core.Result, cacheOutcome) {
	t.Helper()
	res, _, out, err := c.do(context.Background(), key, maxN, exactBuilder(nil), runSolver)
	if err != nil {
		t.Fatalf("do(%q, %d): %v", key, maxN, err)
	}
	return res, out
}

func TestCacheLRUEviction(t *testing.T) {
	c := newSolveCache(2)
	for _, k := range []string{"a", "b"} {
		if _, out := mustDo(t, c, k, 5); out != cacheMiss {
			t.Fatalf("priming %q: %v", k, out)
		}
	}
	// Touch "a" so "b" is the LRU victim.
	if _, out := mustDo(t, c, "a", 5); out != cacheHit {
		t.Fatalf("a: %v, want hit", out)
	}
	if _, out := mustDo(t, c, "c", 5); out != cacheMiss {
		t.Fatalf("inserting c: %v", out)
	}
	if c.len() != 2 {
		t.Fatalf("cache len = %d, want 2", c.len())
	}
	if _, out := mustDo(t, c, "a", 5); out != cacheHit {
		t.Error("a was evicted despite being recently used")
	}
	var rebuilds atomic.Int64
	_, _, out, err := c.do(context.Background(), "b", 5, exactBuilder(&rebuilds), runSolver)
	if err != nil {
		t.Fatal(err)
	}
	if out != cacheMiss || rebuilds.Load() != 1 {
		t.Errorf("b was not evicted as the LRU entry: %v, rebuilds=%d", out, rebuilds.Load())
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := newSolveCache(8)
	var calls atomic.Int64
	gate := make(chan struct{})
	const goroutines = 12
	var wg sync.WaitGroup
	hits := make([]bool, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, _, out, err := c.do(context.Background(), "k", 20, exactBuilder(&calls),
				func(ctx context.Context, s *core.Solver, maxN int) error {
					<-gate // hold every concurrent caller in the dedup path
					return s.RunContext(ctx, maxN)
				})
			if err != nil {
				t.Error(err)
			}
			hits[g] = out.cached()
		}(g)
	}
	close(gate)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("solver was built %d times for identical concurrent requests", n)
	}
	nhits := 0
	for _, h := range hits {
		if h {
			nhits++
		}
	}
	if nhits != goroutines-1 {
		t.Errorf("%d of %d callers shared the leader's run", nhits, goroutines-1)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := newSolveCache(8)
	boom := errors.New("boom")
	_, _, _, err := c.do(context.Background(), "k", 10, exactBuilder(nil),
		func(context.Context, *core.Solver, int) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.len() != 0 {
		t.Fatal("error result was cached")
	}
	if _, out := mustDo(t, c, "k", 10); out != cacheMiss {
		t.Fatalf("retry after error: %v", out)
	}
}

// TestCacheBuildErrorsNotCached: a build failure (bad model/algorithm) must
// not leave a poisoned entry behind.
func TestCacheBuildErrorsNotCached(t *testing.T) {
	c := newSolveCache(8)
	boom := errors.New("bad model")
	_, _, _, err := c.do(context.Background(), "k", 10,
		func() (*core.Solver, error) { return nil, boom }, runSolver)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.len() != 0 {
		t.Fatal("build error was cached")
	}
	if _, out := mustDo(t, c, "k", 10); out != cacheMiss {
		t.Fatalf("retry after build error: %v", out)
	}
}

// TestCacheFollowerSurvivesLeaderCancellation: a follower with a healthy
// context must not inherit a leader's deadline error — it retries itself.
func TestCacheFollowerSurvivesLeaderCancellation(t *testing.T) {
	c := newSolveCache(8)
	leaderIn := make(chan struct{})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // leader: fails with its own cancellation before any progress
		defer wg.Done()
		_, _, _, err := c.do(leaderCtx, "k", 10, exactBuilder(nil),
			func(ctx context.Context, s *core.Solver, maxN int) error {
				close(leaderIn)
				<-ctx.Done()
				return context.Cause(ctx)
			})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leader err = %v", err)
		}
	}()
	<-leaderIn

	wg.Add(1)
	go func() { // follower: joins the flight, then recovers from the failure
		defer wg.Done()
		res, _, _, err := c.do(context.Background(), "k", 10, exactBuilder(nil), runSolver)
		if err != nil || res.Len() != 10 {
			t.Errorf("follower: res=%+v err=%v", res, err)
		}
	}()

	cancelLeader()
	wg.Wait()
}

// TestCacheWaiterCancellation: a request blocked on a busy entry lock whose
// context is cancelled returns its cause at once, without disturbing the run
// it waited on, and leaves the waiter gauge at zero.
func TestCacheWaiterCancellation(t *testing.T) {
	c := newSolveCache(8)
	c.adm = admission.New(admission.Config{}, nil)
	leaderIn, release := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, _, err := c.do(context.Background(), "k", 30, exactBuilder(nil),
			func(ctx context.Context, s *core.Solver, maxN int) error {
				close(leaderIn)
				<-release
				return s.RunContext(ctx, maxN)
			})
		leaderDone <- err
	}()
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, _, _, err := c.do(ctx, "k", 20, exactBuilder(nil), runSolver)
		waiterDone <- err
	}()
	waitCond(t, func() bool { return c.adm.Stats().CoalesceWaiters == 1 })
	cancel()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter still blocked on the entry lock")
	}
	if n := c.adm.Stats().CoalesceWaiters; n != 0 {
		t.Fatalf("waiter gauge = %d after the waiter left", n)
	}

	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader err = %v", err)
	}
	if res, out := mustDo(t, c, "k", 30); out != cacheHit || res.Len() != 30 {
		t.Fatalf("leader's run not published: %v len=%d", out, res.Len())
	}
}

func TestCacheDisabledStillDeduplicates(t *testing.T) {
	c := newSolveCache(-1)
	var builds atomic.Int64
	for i := 0; i < 2; i++ {
		_, _, out, err := c.do(context.Background(), "k", 10, exactBuilder(&builds), runSolver)
		if err != nil {
			t.Fatal(err)
		}
		if out != cacheMiss {
			t.Errorf("disabled cache: %v, want miss", out)
		}
	}
	if builds.Load() != 2 {
		t.Errorf("disabled cache reused a solver across requests: %d builds", builds.Load())
	}
	if c.len() != 0 {
		t.Error("disabled cache stored an entry")
	}
}

// TestCachePrefixHitBelowCachedN: once a trajectory is cached at N, any
// smaller population is a hit served from the stored prefix — the solver
// never runs again.
func TestCachePrefixHitBelowCachedN(t *testing.T) {
	c := newSolveCache(8)
	if _, out := mustDo(t, c, "k", 40); out != cacheMiss {
		t.Fatalf("cold solve: %v", out)
	}
	var reruns atomic.Int64
	res, e, out, err := c.do(context.Background(), "k", 25, exactBuilder(nil),
		func(ctx context.Context, s *core.Solver, maxN int) error {
			reruns.Add(1)
			return s.RunContext(ctx, maxN)
		})
	if err != nil {
		t.Fatal(err)
	}
	if out != cacheHit || e == nil || reruns.Load() != 0 {
		t.Fatalf("maxN below cached N: %v entry=%v reruns=%d", out, e != nil, reruns.Load())
	}
	if res.Len() != 25 {
		t.Fatalf("prefix length = %d, want 25", res.Len())
	}
	cold, err := core.ExactMVA(testModel(), 25)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 25; n++ {
		if res.X[n] != cold.X[n] || res.R[n] != cold.R[n] {
			t.Fatalf("prefix row %d differs from a cold solve", n+1)
		}
	}
	if c.len() != 1 {
		t.Errorf("cache len = %d, want 1 (prefix reuse, not per-maxN entries)", c.len())
	}
}

// TestCacheExtendAboveCachedN: a larger population resumes the cached solver
// in place instead of re-solving from population 1.
func TestCacheExtendAboveCachedN(t *testing.T) {
	c := newSolveCache(8)
	if _, out := mustDo(t, c, "k", 20); out != cacheMiss {
		t.Fatalf("cold solve: %v", out)
	}
	var resumedFrom atomic.Int64
	res, _, out, err := c.do(context.Background(), "k", 50, exactBuilder(nil),
		func(ctx context.Context, s *core.Solver, maxN int) error {
			resumedFrom.Store(int64(s.N()))
			return s.RunContext(ctx, maxN)
		})
	if err != nil {
		t.Fatal(err)
	}
	if out != cacheExtend {
		t.Errorf("extension: %v", out)
	}
	if got := resumedFrom.Load(); got != 20 {
		t.Errorf("extension resumed from N=%d, want 20", got)
	}
	if res.Len() != 50 {
		t.Fatalf("extended length = %d, want 50", res.Len())
	}
	cold, err := core.ExactMVA(testModel(), 50)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 50; n++ {
		if res.X[n] != cold.X[n] || res.R[n] != cold.R[n] {
			t.Fatalf("extended row %d differs from a cold solve", n+1)
		}
	}
	if c.len() != 1 {
		t.Errorf("cache len = %d, want 1", c.len())
	}
}

// TestCachePartialProgressResumes: a run that fails after making progress
// keeps the partial trajectory — smaller populations hit it and a retry
// extends it rather than starting over.
func TestCachePartialProgressResumes(t *testing.T) {
	c := newSolveCache(8)
	boom := errors.New("boom")
	_, _, _, err := c.do(context.Background(), "k", 30, exactBuilder(nil),
		func(ctx context.Context, s *core.Solver, maxN int) error {
			if err := s.RunContext(ctx, 12); err != nil { // partial progress, then failure
				return err
			}
			return boom
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.len() != 1 {
		t.Fatalf("partial progress dropped: len = %d", c.len())
	}
	if res, out := mustDo(t, c, "k", 12); out != cacheHit || res.Len() != 12 {
		t.Errorf("partial trajectory not served: %v len=%d", out, res.Len())
	}
	var resumedFrom atomic.Int64
	res, _, out, err := c.do(context.Background(), "k", 30, exactBuilder(nil),
		func(ctx context.Context, s *core.Solver, maxN int) error {
			resumedFrom.Store(int64(s.N()))
			return s.RunContext(ctx, maxN)
		})
	if err != nil {
		t.Fatal(err)
	}
	if resumedFrom.Load() != 12 || res.Len() != 30 || out != cacheExtend {
		t.Errorf("retry: %v resumed from %d (want extend from 12), len %d (want 30)", out, resumedFrom.Load(), res.Len())
	}
}

// TestCacheConcurrentExtends: racing requests at mixed populations on one
// key must serialize extensions, serve prefixes lock-free, and leave one
// entry whose trajectory is bit-identical to a cold solve.
func TestCacheConcurrentExtends(t *testing.T) {
	c := newSolveCache(8)
	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			maxN := 5 + 7*g // mixed targets: prefix hits and extensions interleave
			res, _, _, err := c.do(context.Background(), "k", maxN, exactBuilder(nil), runSolver)
			if err != nil {
				t.Error(err)
				return
			}
			if res.Len() != maxN {
				t.Errorf("goroutine %d: len = %d, want %d", g, res.Len(), maxN)
			}
		}(g)
	}
	wg.Wait()
	maxN := 5 + 7*(goroutines-1)
	res, out := mustDo(t, c, "k", maxN)
	if out != cacheHit {
		t.Errorf("final full-length request: %v", out)
	}
	cold, err := core.ExactMVA(testModel(), maxN)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < maxN; n++ {
		if res.X[n] != cold.X[n] {
			t.Fatalf("row %d differs from a cold solve after concurrent extends", n+1)
		}
	}
	if c.len() != 1 {
		t.Errorf("cache len = %d, want 1", c.len())
	}
}
