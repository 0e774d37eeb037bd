// Package journal is the fabric's bounded structured event log: every
// stateful subsystem (cluster breakers and membership, admission, the
// deviation monitor, the online estimator, the self-model, server lifecycle)
// appends typed events describing its state transitions, and operators read
// them back as one causally-ordered timeline via GET /debug/events (local)
// or GET /cluster/v1/events (fleet-wide merge).
//
// Storage follows the flight recorder's discipline (internal/obs): a
// fixed-size ring per event type with oldest-first eviction, hard caps set
// up front, and nil-safe methods throughout so callers never guard their
// hooks. Events carry a node-monotonic sequence number, wall time, node id,
// and an optional trace id joining the event against the flight recorder's
// retained traces, plus an optional profile id linking a pprof capture
// grabbed at the moment of the anomaly (see ProfileStore).
package journal

import (
	"fmt"
	"io"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/promtext"
)

// The closed set of event types. Metrics expose every type from the first
// scrape so dashboards see stable schemas; Append rejects types outside the
// set (a typo'd type would otherwise mint an unbounded label space).
const (
	TypeBreaker         = "breaker"          // circuit breaker open/half-open/close
	TypeRingRebuild     = "ring_rebuild"     // consistent-hash ring recomputed
	TypeMembership      = "membership"       // peer marked up/down
	TypeHedge           = "hedge"            // hedged forward fired
	TypeDeepFailover    = "deep_failover"    // deep-solve chunk failed over
	TypeAdmissionMode   = "admission_mode"   // admission gate mode transition
	TypeShedBurst       = "shed_burst"       // coalesced run of shed requests
	TypeRedirect        = "redirect"         // overload redirect to a peer
	TypeDeviationBreach = "deviation_breach" // prediction deviation bound exceeded
	TypeRefit           = "refit"            // demand estimator re-fit
	TypeSnapshot        = "snapshot"         // demand snapshot version change
	TypeCacheInvalidate = "cache_invalidate" // solve-cache entries invalidated
	TypeKneeShift       = "knee_shift"       // self-model saturation knee moved
	TypeSelfReady       = "self_ready"       // self-model warmup -> ready
	TypeDrain           = "drain"            // server drain start/finish
	TypeCacheEvict      = "cache_evict"      // solve-cache eviction under pressure
	TypeProfileCapture  = "profile_capture"  // anomaly profile capture completed
)

// Types lists every event type the journal accepts, sorted. Metric writers
// and the events API iterate it so expositions and stats are exhaustive and
// stable regardless of which types have fired.
var Types = []string{
	TypeAdmissionMode, TypeBreaker, TypeCacheEvict, TypeCacheInvalidate,
	TypeDeepFailover, TypeDeviationBreach, TypeDrain, TypeHedge,
	TypeKneeShift, TypeMembership, TypeProfileCapture, TypeRedirect,
	TypeRefit, TypeRingRebuild, TypeSelfReady, TypeShedBurst, TypeSnapshot,
}

// KnownType reports whether typ is in the journal's closed type set.
func KnownType(typ string) bool {
	for _, t := range Types {
		if t == typ {
			return true
		}
	}
	return false
}

// Attr is one key/value annotation on an event.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Event is one journal entry. Seq is monotonic per node (assigned by
// Append); cross-node merges order by wall time while preserving each
// node's sequence order, so per-node causality survives clock skew.
type Event struct {
	Seq        uint64 `json:"seq"`
	TimeUnixMS int64  `json:"timeUnixMs"`
	Node       string `json:"node"`
	Type       string `json:"type"`
	Message    string `json:"message"`
	TraceID    string `json:"traceId,omitempty"`
	ProfileID  string `json:"profileId,omitempty"`
	Attrs      []Attr `json:"attrs,omitempty"`
}

// Config tunes a Journal. The zero value is usable: every field defaults.
type Config struct {
	// Node names this node in every event (default "solverd").
	Node string
	// PerTypeCap bounds the events retained per type (default 512; negative
	// disables the journal entirely — Append becomes a no-op).
	PerTypeCap int
	// Now overrides the clock (tests). Default time.Now.
	Now func() time.Time
}

// Journal is the bounded event log. All methods are safe on a nil receiver
// and for concurrent use.
type Journal struct {
	cfg Config
	seq atomic.Uint64

	mu    sync.Mutex
	rings map[string]*ring
}

// ring is one type's fixed-capacity circular buffer.
type ring struct {
	buf      []Event // preallocated to the per-type cap
	start, n int
	appended uint64
	evicted  uint64
}

// New builds a Journal from cfg. A negative PerTypeCap returns a disabled
// journal (non-nil, but Append drops everything) so callers keep one code
// path.
func New(cfg Config) *Journal {
	if cfg.Node == "" {
		cfg.Node = "solverd"
	}
	if cfg.PerTypeCap == 0 {
		cfg.PerTypeCap = 512
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Journal{cfg: cfg, rings: make(map[string]*ring)}
}

// Enabled reports whether events are being retained.
func (j *Journal) Enabled() bool { return j != nil && j.cfg.PerTypeCap > 0 }

// Node returns the node id stamped on events ("" on a nil journal).
func (j *Journal) Node() string {
	if j == nil {
		return ""
	}
	return j.cfg.Node
}

// Append records one event of the given type and returns its sequence
// number (0 when the journal is nil/disabled or the type is unknown).
// The journal fills Seq, TimeUnixMS and Node. Append takes only a leaf
// mutex, so callers may hold their own locks across it.
func (j *Journal) Append(typ, message string, e Event) uint64 {
	if !j.Enabled() || !KnownType(typ) {
		return 0
	}
	e.Type = typ
	e.Message = message
	e.Node = j.cfg.Node
	e.TimeUnixMS = j.cfg.Now().UnixMilli()
	e.Seq = j.seq.Add(1)
	j.mu.Lock()
	r, ok := j.rings[typ]
	if !ok {
		r = &ring{buf: make([]Event, j.cfg.PerTypeCap)}
		j.rings[typ] = r
	}
	if r.n == len(r.buf) {
		// Full: overwrite the oldest slot (oldest-first eviction).
		r.buf[r.start] = e
		r.start = (r.start + 1) % len(r.buf)
		r.evicted++
	} else {
		r.buf[(r.start+r.n)%len(r.buf)] = e
		r.n++
	}
	r.appended++
	j.mu.Unlock()
	return e.Seq
}

// Filter selects events from Events. The zero value selects everything.
type Filter struct {
	// Type keeps only events of one type ("" keeps all).
	Type string
	// SinceSeq keeps events with Seq > SinceSeq.
	SinceSeq uint64
	// TraceID keeps events carrying this trace id.
	TraceID string
	// Limit keeps only the newest Limit events (0 keeps all). The result
	// stays in ascending sequence order — Limit tails the timeline.
	Limit int
}

// ParseFilter reads a Filter from the /debug/events query parameters:
//
//	type=NAME   one event type (see Types)
//	since=SEQ   events with sequence number > SEQ
//	trace=ID    events carrying this trace id
//	limit=N     the newest N matching events (still ascending)
//
// An unknown type, or a since or limit that is not a non-negative integer,
// is an error.
func ParseFilter(q url.Values) (Filter, error) {
	f := Filter{Type: q.Get("type"), TraceID: q.Get("trace")}
	if f.Type != "" && !KnownType(f.Type) {
		return Filter{}, fmt.Errorf("unknown event type %q", f.Type)
	}
	if v := q.Get("since"); v != "" {
		since, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return Filter{}, fmt.Errorf("bad since %q", v)
		}
		f.SinceSeq = since
	}
	if v := q.Get("limit"); v != "" {
		limit, err := strconv.Atoi(v)
		if err != nil || limit < 0 {
			return Filter{}, fmt.Errorf("bad limit %q", v)
		}
		f.Limit = limit
	}
	return f, nil
}

// Events returns the retained events matching f in ascending sequence
// order. Nil/disabled journals return nil.
func (j *Journal) Events(f Filter) []Event {
	if !j.Enabled() {
		return nil
	}
	j.mu.Lock()
	var out []Event
	for typ, r := range j.rings {
		if f.Type != "" && typ != f.Type {
			continue
		}
		for i := 0; i < r.n; i++ {
			e := r.buf[(r.start+i)%len(r.buf)]
			if e.Seq <= f.SinceSeq {
				continue
			}
			if f.TraceID != "" && e.TraceID != f.TraceID {
				continue
			}
			out = append(out, e)
		}
	}
	j.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}

// TypeStats is one type's occupancy in Stats.
type TypeStats struct {
	Type     string `json:"type"`
	Stored   int    `json:"stored"`
	Appended uint64 `json:"appended"`
	Evicted  uint64 `json:"evicted"`
}

// Stats is a point-in-time snapshot of the journal's occupancy.
type Stats struct {
	Enabled    bool        `json:"enabled"`
	Node       string      `json:"node"`
	PerTypeCap int         `json:"perTypeCap"`
	LastSeq    uint64      `json:"lastSeq"`
	Stored     int         `json:"stored"`
	Appended   uint64      `json:"appended"`
	Evicted    uint64      `json:"evicted"`
	Types      []TypeStats `json:"types"`
}

// Stats snapshots occupancy. Every known type gets a row (zeroed when it
// never fired) so consumers see a stable shape. Safe on nil.
func (j *Journal) Stats() Stats {
	if j == nil {
		return Stats{}
	}
	s := Stats{
		Enabled:    j.Enabled(),
		Node:       j.cfg.Node,
		PerTypeCap: j.cfg.PerTypeCap,
		LastSeq:    j.seq.Load(),
	}
	j.mu.Lock()
	for _, typ := range Types {
		ts := TypeStats{Type: typ}
		if r, ok := j.rings[typ]; ok {
			ts.Stored, ts.Appended, ts.Evicted = r.n, r.appended, r.evicted
		}
		s.Stored += ts.Stored
		s.Appended += ts.Appended
		s.Evicted += ts.Evicted
		s.Types = append(s.Types, ts)
	}
	j.mu.Unlock()
	return s
}

// WriteMetrics appends the journal's Prometheus families to w. All known
// types are exposed from the first scrape; a nil/disabled journal still
// writes the full (zeroed) schema so scrapes never see families appear.
func (j *Journal) WriteMetrics(w io.Writer) error {
	s := j.Stats()
	byType := make(map[string]TypeStats, len(s.Types))
	for _, ts := range s.Types {
		byType[ts.Type] = ts
	}
	p := promtext.NewWriter(w)
	p.Gauge("solverd_journal_events_stored", "Journal events currently retained, by type.")
	for _, typ := range Types {
		p.Int(byType[typ].Stored, "type", typ)
	}
	p.Counter("solverd_journal_events_total", "Journal events appended since start, by type.")
	for _, typ := range Types {
		p.Uint(byType[typ].Appended, "type", typ)
	}
	p.Counter("solverd_journal_events_evicted_total", "Journal events evicted oldest-first to stay within the per-type cap, by type.")
	for _, typ := range Types {
		p.Uint(byType[typ].Evicted, "type", typ)
	}
	return p.Err()
}
