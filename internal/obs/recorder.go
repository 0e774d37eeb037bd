// Package obs is solverd's flight recorder: a bounded, allocation-conscious
// store of completed request traces, plus the stitcher that merges per-node
// span fragments into one cross-node tree.
//
// The recorder applies a tail-sampling policy at request completion — the
// decision is made after the outcome is known, so it can always keep what
// matters: error traces (status >= 500) and traces slower than a configurable
// threshold are retained unconditionally; the rest are sampled by a
// deterministic hash of the trace ID, so every node in a cluster makes the
// same keep/drop call and a kept trace has fragments on all nodes it touched.
// Storage is hard-capped on traces, spans and approximate bytes; when any cap
// is exceeded the oldest trace is evicted whole.
package obs

import (
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Defaults applied by New when the corresponding Config field is zero.
const (
	DefaultMaxTraces     = 512
	DefaultMaxSpans      = 16384
	DefaultMaxBytes      = 8 << 20
	DefaultSlowThreshold = 250 * time.Millisecond
	DefaultSampleRate    = 0.05
)

// Config bounds and tunes a Recorder.
type Config struct {
	// Node names this recorder's node in stored fragments (e.g. the
	// advertised host:port). Empty means standalone; fragments carry "local".
	Node string

	// MaxTraces caps retained trace IDs (default 512, negative disables the
	// recorder entirely — Record becomes a drop).
	MaxTraces int

	// MaxSpans caps the total spans across all retained traces (default 16384).
	MaxSpans int

	// MaxBytes caps the approximate retained bytes (default 8 MiB).
	MaxBytes int

	// SlowThreshold marks a trace "slow" — kept unconditionally — when its
	// request duration reaches it (default 250ms).
	SlowThreshold time.Duration

	// SampleRate is the keep probability for ordinary (fast, successful)
	// traces: 0 means the 0.05 default, >= 1 keeps everything, negative
	// keeps none. The decision hashes the trace ID, so it is deterministic
	// and cluster-wide consistent.
	SampleRate float64
}

// RecordedRequest is one node's record of one completed request: the unit the
// recorder stores and ships to peers for stitching.
type RecordedRequest struct {
	Node     string                 `json:"node"`
	TraceID  string                 `json:"traceId"`
	Handler  string                 `json:"handler"`
	Status   int                    `json:"status"`
	Start    time.Time              `json:"start"`
	Duration time.Duration          `json:"duration"`
	Attrs    []telemetry.SpanAttr   `json:"attrs,omitempty"`
	Spans    []telemetry.SpanRecord `json:"spans"`
}

// approxBytes estimates the record's retained size for the byte cap. It
// counts string payloads plus fixed per-struct overheads; exactness does not
// matter, stability of the estimate does (the same record always costs the
// same, so eviction accounting balances).
func (r *RecordedRequest) approxBytes() int {
	n := 96 + len(r.Node) + len(r.TraceID) + len(r.Handler)
	for _, a := range r.Attrs {
		n += 32 + len(a.Key) + len(a.Value)
	}
	for i := range r.Spans {
		sp := &r.Spans[i]
		n += 96 + len(sp.ID) + len(sp.Parent) + len(sp.Name)
		for _, a := range sp.Attrs {
			n += 32 + len(a.Key) + len(a.Value)
		}
	}
	return n
}

// TraceSummary is one retained trace as listed by Index.
type TraceSummary struct {
	ID       string        `json:"id"`
	Handler  string        `json:"handler"`
	Status   int           `json:"status"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration"`
	Requests int           `json:"requests"`
	Spans    int           `json:"spans"`
	Slow     bool          `json:"slow"`
	Error    bool          `json:"error"`
}

// Stats is a snapshot of recorder occupancy and lifetime counters.
type Stats struct {
	Traces    int    `json:"traces"`
	Spans     int    `json:"spans"`
	Bytes     int    `json:"bytes"`
	Kept      uint64 `json:"kept"`
	Dropped   uint64 `json:"dropped"`
	Evictions uint64 `json:"evictions"`
}

// Recorder is the bounded flight-recorder store. All methods are safe for
// concurrent use and no-ops on a nil receiver, so call sites never need a
// "tracing enabled?" branch.
type Recorder struct {
	cfg Config

	mu        sync.Mutex
	byID      map[string][]*RecordedRequest
	order     []string // retained trace IDs, oldest first
	spans     int
	bytes     int
	kept      uint64
	dropped   uint64
	evictions uint64
}

// New builds a Recorder, applying defaults for zero Config fields. A negative
// MaxTraces yields a recorder that drops everything (still nil-safe to call).
func New(cfg Config) *Recorder {
	if cfg.Node == "" {
		cfg.Node = "local"
	}
	if cfg.MaxTraces == 0 {
		cfg.MaxTraces = DefaultMaxTraces
	}
	if cfg.MaxSpans == 0 {
		cfg.MaxSpans = DefaultMaxSpans
	}
	if cfg.MaxBytes == 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = DefaultSlowThreshold
	}
	if cfg.SampleRate == 0 {
		cfg.SampleRate = DefaultSampleRate
	}
	return &Recorder{cfg: cfg, byID: make(map[string][]*RecordedRequest)}
}

// Node returns the recorder's node name ("" for nil).
func (r *Recorder) Node() string {
	if r == nil {
		return ""
	}
	return r.cfg.Node
}

// SampleKeep reports the deterministic tail-sampling decision for an ordinary
// (fast, successful) trace ID at the given rate: FNV-1a of the ID mapped to
// [0,1) compared against rate. Exported so tests and peers can predict it.
func SampleKeep(traceID string, rate float64) bool {
	if rate >= 1 {
		return true
	}
	if rate <= 0 {
		return false
	}
	h := fnv.New64a()
	h.Write([]byte(traceID))
	return float64(h.Sum64())/float64(math.MaxUint64) < rate
}

// ShouldKeep reports whether a completed request with the given status and
// duration passes the tail-sampling policy for trace id.
func (r *Recorder) ShouldKeep(id string, status int, dur time.Duration) bool {
	if r == nil || r.cfg.MaxTraces < 0 {
		return false
	}
	if status >= 500 || dur >= r.cfg.SlowThreshold {
		return true
	}
	return SampleKeep(id, r.cfg.SampleRate)
}

// Record applies tail-sampling to a completed traced request and, when kept,
// snapshots the trace's spans and attributes into the store. It is called
// once per request at completion — never on the solver hot path.
func (r *Recorder) Record(tr *telemetry.Trace, handler string, status int, dur time.Duration) {
	if r == nil || tr == nil {
		return
	}
	if !r.ShouldKeep(tr.ID(), status, dur) {
		r.mu.Lock()
		r.dropped++
		r.mu.Unlock()
		return
	}
	r.record(tr, handler, status, dur)
}

// ForceRecord stores the trace unconditionally, bypassing sampling. Used for
// out-of-band events that must never be dropped (e.g. prediction-deviation
// breaches from estimate.DeviationTracker).
func (r *Recorder) ForceRecord(tr *telemetry.Trace, handler string, status int, dur time.Duration) {
	if r == nil || tr == nil || r.cfg.MaxTraces < 0 {
		return
	}
	r.record(tr, handler, status, dur)
}

func (r *Recorder) record(tr *telemetry.Trace, handler string, status int, dur time.Duration) {
	rec := &RecordedRequest{
		Node:     r.cfg.Node,
		TraceID:  tr.ID(),
		Handler:  handler,
		Status:   status,
		Start:    tr.Start(),
		Duration: dur,
		Spans:    tr.SpanRecords(),
	}
	for _, a := range tr.Attrs() {
		rec.Attrs = append(rec.Attrs, telemetry.SpanAttr{Key: a.Key, Value: a.Value.String()})
	}
	r.Add(rec)
}

// Add inserts an already-built record (a local completion or a fragment
// replicated from a peer) and enforces the caps, evicting oldest traces
// whole until the store fits again. The newest trace is never evicted, so a
// single oversized trace is retained (truncating it would break stitching).
func (r *Recorder) Add(rec *RecordedRequest) {
	if r == nil || rec == nil || rec.TraceID == "" || r.cfg.MaxTraces < 0 {
		return
	}
	sz := rec.approxBytes()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byID[rec.TraceID]; !ok {
		r.order = append(r.order, rec.TraceID)
	}
	r.byID[rec.TraceID] = append(r.byID[rec.TraceID], rec)
	r.spans += len(rec.Spans)
	r.bytes += sz
	r.kept++
	for len(r.order) > 1 &&
		(len(r.order) > r.cfg.MaxTraces || r.spans > r.cfg.MaxSpans || r.bytes > r.cfg.MaxBytes) {
		oldest := r.order[0]
		r.order = r.order[1:]
		for _, old := range r.byID[oldest] {
			r.spans -= len(old.Spans)
			r.bytes -= old.approxBytes()
		}
		delete(r.byID, oldest)
		r.evictions++
	}
}

// Get returns the stored records for a trace ID, oldest first (nil when the
// trace is unknown). Records are shared snapshots: callers must not mutate.
func (r *Recorder) Get(id string) []*RecordedRequest {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	recs := r.byID[id]
	if recs == nil {
		return nil
	}
	return append([]*RecordedRequest(nil), recs...)
}

// Index summarizes every retained trace, newest first.
func (r *Recorder) Index() []TraceSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceSummary, 0, len(r.order))
	for _, id := range r.order {
		recs := r.byID[id]
		s := TraceSummary{ID: id, Requests: len(recs)}
		for _, rec := range recs {
			s.Spans += len(rec.Spans)
			if rec.Status >= 500 {
				s.Error = true
			}
			if rec.Duration >= r.cfg.SlowThreshold {
				s.Slow = true
			}
			if rec.Duration >= s.Duration {
				// Report the trace's dominant request: the slowest one.
				s.Handler, s.Status, s.Start, s.Duration = rec.Handler, rec.Status, rec.Start, rec.Duration
			}
		}
		out = append(out, s)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	return out
}

// Stats snapshots occupancy and lifetime counters.
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Traces:    len(r.order),
		Spans:     r.spans,
		Bytes:     r.bytes,
		Kept:      r.kept,
		Dropped:   r.dropped,
		Evictions: r.evictions,
	}
}
