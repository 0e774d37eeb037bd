package server

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/modelio"
)

// solveCache is the prefix-reusing LRU solve cache. Entries are keyed by the
// canonical request hash *without* the population (modelio.SolveRequest
// .CacheKey / SweepKeyBase.GroupKey): one entry owns a resumable core.Solver
// whose trajectory answers every maxN for that model —
//
//   - maxN ≤ cached N: served lock-free from the published prefix snapshot,
//   - maxN > cached N: the solver is extended in place under the entry's
//     lock (which doubles as singleflight: concurrent requests queue behind
//     one extension and are then served coalesced off the refreshed
//     snapshot when it covers them).
//
// Snapshots are immutable core.Result prefix views; extension only writes
// rows beyond every published snapshot and capacity growth reallocates, so
// readers never observe a write.
type solveCache struct {
	// jn journals evictions under LRU pressure (nil-safe; set by server.New
	// before traffic, appended to under mu — Append takes only a leaf lock).
	jn *journal.Journal
	// adm counts requests blocked on an entry lock (nil-safe; set by
	// server.New before traffic).
	adm *admission.Controller

	mu    sync.Mutex
	max   int                    // entry cap; <= 0 disables storage (dedup still applies)
	ll    *list.List             // front = most recently used, of *cacheEntry
	items map[string]*cacheEntry // key → entry (transient when disabled)
}

type cacheEntry struct {
	key string
	el  *list.Element // nil when the cache is disabled (transient entry)

	// lastAccess is the entry's most recent lookup time, guarded by the
	// cache's mu (lookup already holds it); exposed on /v1/status.
	lastAccess time.Time

	// lock serializes build/extend on the solver (cap-1 channel so waiting
	// respects the caller's context). The solver field is only touched while
	// holding it.
	lock   chan struct{}
	solver *core.Solver

	// traj is the published trajectory: a stable prefix snapshot covering
	// every solved population, readable without the entry lock.
	traj atomic.Pointer[core.Result]

	// text and strided memoize the JSON text of traj's rows for replies
	// served from this entry (rowText): text every row, for every ≤ 1
	// replies, and strided every e-th row at the latest stride e > 1 asked
	// for. Each is built lazily by the first reply it does not cover and
	// dies with the entry.
	text, strided atomic.Pointer[modelio.RowText]

	// evicted marks an entry removed from the LRU; lock holders release the
	// solver's scratch on their way out and lock waiters retry on a fresh
	// entry.
	evicted atomic.Bool
}

func newSolveCache(max int) *solveCache {
	return &solveCache{
		max:   max,
		ll:    list.New(),
		items: make(map[string]*cacheEntry),
	}
}

// len returns the number of cached entries.
func (c *solveCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// cacheEntrySnapshot is the /v1/status view of one cache entry. Algorithm
// and Population are zero-valued while the entry's first solve is still in
// flight (no trajectory published yet).
type cacheEntrySnapshot struct {
	Key        string    `json:"key"`
	Algorithm  string    `json:"algorithm,omitempty"`
	Population int       `json:"population"`
	LastAccess time.Time `json:"lastAccess"`
}

// entries snapshots the cache for introspection, most recently used first.
func (c *solveCache) entries() []cacheEntrySnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cacheEntrySnapshot, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		snap := cacheEntrySnapshot{Key: e.key, LastAccess: e.lastAccess}
		if t := e.traj.Load(); t != nil {
			snap.Algorithm = t.Algorithm
			snap.Population = t.SolvedN()
		}
		out = append(out, snap)
	}
	return out
}

// lookup returns the entry for key and marks it most recently used. A
// missing entry is created when create is set, else lookup returns nil.
// Created entries enter the LRU immediately (evicting past the cap) so
// concurrent requests converge on one entry; an entry that never produces a
// trajectory is removed again by finish.
func (c *solveCache) lookup(key string, create bool) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		if e.el != nil {
			c.ll.MoveToFront(e.el)
		}
		e.lastAccess = time.Now()
		return e
	}
	if !create {
		return nil
	}
	e := &cacheEntry{key: key, lock: make(chan struct{}, 1), lastAccess: time.Now()}
	c.items[key] = e
	if c.max > 0 {
		e.el = c.ll.PushFront(e)
		for c.ll.Len() > c.max {
			c.evictLRU()
		}
	}
	return e
}

// evictLRU removes the tail entry (mu held). The solver's scratch is
// reclaimed here when the entry is idle; otherwise the current lock holder
// reclaims it in unlockEntry.
func (c *solveCache) evictLRU() {
	back := c.ll.Back()
	if back == nil {
		return
	}
	e := back.Value.(*cacheEntry)
	c.ll.Remove(back)
	delete(c.items, e.key)
	e.evicted.Store(true)
	c.jn.Append(journal.TypeCacheEvict, "solve-cache entry evicted under LRU pressure",
		journal.Event{Attrs: []journal.Attr{{Key: "key", Value: e.key}}})
	select {
	case e.lock <- struct{}{}: // idle: reclaim now
		c.unlockEntry(e)
	default: // busy: the holder's unlockEntry reclaims
	}
}

// unlockEntry releases the entry lock, first returning an evicted entry's
// solver scratch to the pool (safe: we hold the lock, and no later caller
// can reach the solver — lock waiters see evicted and retry elsewhere).
func (c *solveCache) unlockEntry(e *cacheEntry) {
	if e.evicted.Load() && e.solver != nil {
		e.solver.Release()
		e.solver = nil
	}
	<-e.lock
}

// remove evicts the named entry (the estimate runtime invalidates solves
// built on a superseded demand snapshot this way). Same discipline as
// evictLRU: an idle entry's solver scratch is reclaimed here, a busy one by
// its current lock holder; lock waiters see evicted and retry on a fresh
// entry. Reports whether the key was present.
func (c *solveCache) remove(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		return false
	}
	delete(c.items, e.key)
	if e.el != nil {
		c.ll.Remove(e.el)
	}
	e.evicted.Store(true)
	select {
	case e.lock <- struct{}{}: // idle: reclaim now
		c.unlockEntry(e)
	default: // busy: the holder's unlockEntry reclaims
	}
	return true
}

// drop removes an entry that failed before producing any trajectory, so
// errors are not cached (mu taken here).
func (c *solveCache) drop(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.items[e.key]; ok && cur == e {
		delete(c.items, e.key)
		if e.el != nil {
			c.ll.Remove(e.el)
		}
		e.evicted.Store(true)
	}
}

// cacheOutcome is how solveCache.do answered a request: lock-free from the
// published snapshot (hit), from another request's run after waiting on the
// entry lock (coalesced), by resuming the entry's solver (extend), or by
// building it and solving cold or from a peer fill's checkpoint (miss).
type cacheOutcome uint8

const (
	cacheHit cacheOutcome = iota
	cacheCoalesced
	cacheExtend
	cacheMiss
)

// cacheOutcomeAttr is each outcome's trace "cache" attribute value, boxed
// once so that setting it allocates nothing on the hit path.
var cacheOutcomeAttr = [...]any{"hit", "coalesced", "extend", "miss"}

func (o cacheOutcome) String() string { return cacheOutcomeAttr[o].(string) }

// cached reports the request was answered without running the solver.
func (o cacheOutcome) cached() bool { return o <= cacheCoalesced }

// do answers a solve for key at population maxN. build constructs the
// entry's resumable solver on first use; run executes/extends it to maxN
// (acquiring the worker pool and threading ctx). The entry lock is the one
// place a request waits for another: a waiter rechecks the published
// snapshot before it solves, so concurrent requests at or below a running
// target share that run. Every outcome but a miss also returns the entry
// (nil for a miss), whose row text memo can serve the reply.
func (c *solveCache) do(ctx context.Context, key string, maxN int,
	build func() (*core.Solver, error),
	run func(ctx context.Context, s *core.Solver, maxN int) error,
) (*core.Result, *cacheEntry, cacheOutcome, error) {
	for {
		e := c.lookup(key, true)
		// Lock-free fast path: the published snapshot already covers maxN.
		// SolvedN (not Len) is the coverage test: a decimated entry's
		// recursion advances through every population while storing only
		// every stride-th row, and PrefixPop serves any geometry.
		if t := e.traj.Load(); t != nil && t.SolvedN() >= maxN {
			res, err := t.PrefixPop(maxN)
			return res, e, cacheHit, err
		}
		if !c.acquire(ctx, e) {
			return nil, nil, cacheMiss, context.Cause(ctx)
		}
		if e.evicted.Load() {
			// Evicted while we waited; retry on a fresh entry.
			c.unlockEntry(e)
			continue
		}
		// Recheck under the lock: a concurrent leader may have extended far
		// enough while we waited.
		if t := e.traj.Load(); t != nil && t.SolvedN() >= maxN {
			c.unlockEntry(e)
			res, err := t.PrefixPop(maxN)
			return res, e, cacheCoalesced, err
		}
		outcome := cacheMiss
		if e.solver == nil {
			s, err := build()
			if err != nil {
				c.finish(e, false)
				return nil, nil, outcome, err
			}
			e.solver = s
		}
		if e.solver.N() > 0 {
			outcome = cacheExtend
		}
		runErr := run(ctx, e.solver, maxN)
		// Publish whatever progress was made — a partial trajectory still
		// serves smaller populations and resumes on retry. Errors are never
		// published: an entry with no progress is dropped.
		progressed := false
		if n := e.solver.N(); n > 0 {
			if t := e.traj.Load(); t == nil || n > t.SolvedN() {
				if snap, err := e.solver.Result().PrefixPop(n); err == nil {
					e.traj.Store(snap)
				}
			}
			progressed = true
		}
		c.finish(e, progressed)
		if runErr != nil {
			return nil, nil, outcome, runErr
		}
		res, err := e.traj.Load().PrefixPop(maxN)
		if outcome == cacheMiss {
			e = nil // a first solve builds no memo
		}
		return res, e, outcome, err
	}
}

// acquire takes e's lock, giving up when ctx ends. A caller that finds the
// lock held is counted on the admission waiter gauge while it waits.
func (c *solveCache) acquire(ctx context.Context, e *cacheEntry) bool {
	select {
	case e.lock <- struct{}{}:
		return true
	default:
	}
	c.adm.AddWaiters(1)
	defer c.adm.AddWaiters(-1)
	select {
	case e.lock <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// rowText returns a row text memo at the reply's stride (every ≤ 1 for
// every row) that covers the reply's first maxN populations, or a shorter
// one when a row it needs is not finite. A memo that falls short is
// extended from the published snapshot: its old text is copied and only the
// new rows are formatted. The dense memo, which nothing replaces, is
// extended to the whole snapshot. The strided memo is extended only as far
// as the reply needs, and a reply at another stride replaces it, so a
// strided reply formats at most its own rows. The new memo is published
// unless a racing build published first. Call only for a dense entry whose
// snapshot covers maxN.
func (e *cacheEntry) rowText(every, maxN int) *modelio.RowText {
	slot := &e.strided
	if every <= 1 {
		slot, every = &e.text, 1
	}
	cur := slot.Load()
	if cur.Stride() == every && cur.Rows() > (maxN-1)/every {
		return cur
	}
	snap, rows := e.traj.Load(), maxN
	if every == 1 {
		rows = len(snap.N)
	}
	next := cur.Extend(every, snap.N[:rows], snap.X[:rows], snap.R[:rows], snap.Cycle[:rows])
	slot.CompareAndSwap(cur, next)
	return next
}

// export returns key's cached trajectory prefix plus its recursion
// checkpoint, for peer cache fill. It takes the entry lock (Checkpoint reads
// the solver's recursion state), bounded by ctx — a running first solve or
// extension is never interrupted, the export just gives up. ok=false when the
// key is unknown, still cold, evicted, or busy past the deadline.
func (c *solveCache) export(ctx context.Context, key string) (*core.Result, *core.Checkpoint, bool) {
	e := c.lookup(key, false)
	if e == nil {
		return nil, nil, false
	}
	select {
	case e.lock <- struct{}{}:
	case <-ctx.Done():
		return nil, nil, false
	}
	defer c.unlockEntry(e)
	if e.evicted.Load() || e.solver == nil || e.solver.N() == 0 {
		return nil, nil, false
	}
	if e.solver.Result().Stride() > 1 {
		// Decimated entries don't export: the fill protocol replays a dense
		// prefix into the receiving solver (Solver.Restore), and a sparse
		// trajectory can't seed that. The asking node just solves cold.
		return nil, nil, false
	}
	cp, err := e.solver.Checkpoint()
	if err != nil {
		return nil, nil, false
	}
	res, err := e.solver.Result().Prefix(cp.N)
	if err != nil {
		return nil, nil, false
	}
	return res, cp, true
}

// finish ends a leader's turn: transient entries (disabled cache) and
// entries that never made progress leave the map so errors are not cached
// and the disabled cache stores nothing.
func (c *solveCache) finish(e *cacheEntry, progressed bool) {
	if e.el == nil || !progressed {
		if e.el == nil {
			// Disabled cache: the solver is abandoned to the GC un-Released —
			// a concurrent waiter may still be about to extend it.
			c.mu.Lock()
			if cur, ok := c.items[e.key]; ok && cur == e {
				delete(c.items, e.key)
			}
			c.mu.Unlock()
			<-e.lock
			return
		}
		c.drop(e)
	}
	c.unlockEntry(e)
}
