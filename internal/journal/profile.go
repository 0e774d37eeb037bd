package journal

import (
	"bytes"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"repro/internal/promtext"
)

// ProfileConfig tunes a ProfileStore. The zero value is usable.
type ProfileConfig struct {
	// Node names this node in profile metadata (default "solverd").
	Node string
	// MaxProfiles bounds retained captures; the oldest is evicted first
	// (default 8; negative disables capture entirely).
	MaxProfiles int
	// CPUDuration is how long each CPU capture runs (default 2s).
	CPUDuration time.Duration
	// MinInterval rate-limits captures: anomalies arriving within
	// MinInterval of the previous capture are skipped (default 30s).
	MinInterval time.Duration
	// Heap also grabs a heap snapshot alongside each CPU profile.
	Heap bool
	// Journal, when non-nil, receives a TypeProfileCapture event when each
	// capture finishes (success or failure).
	Journal *Journal
	// Now overrides the clock (tests). Default time.Now.
	Now func() time.Time
}

// Profile is one retained capture. CPU/Heap hold raw pprof protos once
// State is "done".
type Profile struct {
	ID          string `json:"id"`
	Node        string `json:"node"`
	Trigger     string `json:"trigger"`
	TraceID     string `json:"traceId,omitempty"`
	State       string `json:"state"` // capturing | done | failed
	Error       string `json:"error,omitempty"`
	StartUnixMS int64  `json:"startUnixMs"`
	DurationMS  int64  `json:"durationMs"`
	CPU         []byte `json:"-"`
	Heap        []byte `json:"-"`
	CPUBytes    int    `json:"cpuBytes"`
	HeapBytes   int    `json:"heapBytes"`
}

// ProfileStore captures rate-limited pprof profiles at the moment an
// anomaly fires (deviation breach, enforce-mode shed burst, breaker trip)
// and retains a bounded number of them for GET /debug/profiles/{id}.
// All methods are nil-safe; Capture never blocks the anomaly path — the
// profile is grabbed on a background goroutine while the preassigned id is
// returned immediately so the triggering journal event can link it.
type ProfileStore struct {
	cfg ProfileConfig

	mu        sync.Mutex
	profiles  map[string]*Profile
	order     []string // capture order, oldest first
	nextID    uint64
	busy      bool
	lastStart time.Time
	captures  uint64
	failures  uint64
	skipped   map[string]uint64 // reason -> count
	lastDone  int64             // unix ms of last completed capture
}

// ProfileSkipReasons is the closed set of Capture skip reasons, for stable
// metric schemas.
var ProfileSkipReasons = []string{"busy", "disabled", "rate_limited"}

// NewProfileStore builds a ProfileStore from cfg. A negative MaxProfiles
// returns a disabled store (non-nil, Capture refuses).
func NewProfileStore(cfg ProfileConfig) *ProfileStore {
	if cfg.Node == "" {
		cfg.Node = "solverd"
	}
	if cfg.MaxProfiles == 0 {
		cfg.MaxProfiles = 8
	}
	if cfg.CPUDuration <= 0 {
		cfg.CPUDuration = 2 * time.Second
	}
	if cfg.MinInterval <= 0 {
		cfg.MinInterval = 30 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &ProfileStore{
		cfg:      cfg,
		profiles: make(map[string]*Profile),
		skipped:  make(map[string]uint64),
	}
}

// Enabled reports whether captures can run.
func (p *ProfileStore) Enabled() bool { return p != nil && p.cfg.MaxProfiles > 0 }

// Capture starts one asynchronous profile capture attributed to trigger
// (an event type, e.g. TypeDeviationBreach) and traceID. It returns the
// preassigned profile id so the triggering journal event links the capture
// before it completes; ok is false (and id empty) when the store is
// nil/disabled, a capture is already running, or the rate limit applies.
func (p *ProfileStore) Capture(trigger, traceID string) (id string, ok bool) {
	if p == nil {
		return "", false
	}
	p.mu.Lock()
	now := p.cfg.Now()
	switch {
	case !p.Enabled():
		p.skipped["disabled"]++
		p.mu.Unlock()
		return "", false
	case p.busy:
		p.skipped["busy"]++
		p.mu.Unlock()
		return "", false
	case !p.lastStart.IsZero() && now.Sub(p.lastStart) < p.cfg.MinInterval:
		p.skipped["rate_limited"]++
		p.mu.Unlock()
		return "", false
	}
	p.nextID++
	id = fmt.Sprintf("prof-%06d", p.nextID)
	pr := &Profile{
		ID:          id,
		Node:        p.cfg.Node,
		Trigger:     trigger,
		TraceID:     traceID,
		State:       "capturing",
		StartUnixMS: now.UnixMilli(),
	}
	p.profiles[id] = pr
	p.order = append(p.order, id)
	for len(p.order) > p.cfg.MaxProfiles {
		delete(p.profiles, p.order[0])
		p.order = p.order[1:]
	}
	p.busy = true
	p.lastStart = now
	p.mu.Unlock()
	go p.capture(id, trigger, traceID)
	return id, true
}

// capture runs the actual pprof grab on its own goroutine.
func (p *ProfileStore) capture(id, trigger, traceID string) {
	var cpu bytes.Buffer
	err := pprof.StartCPUProfile(&cpu)
	if err == nil {
		time.Sleep(p.cfg.CPUDuration)
		pprof.StopCPUProfile()
	}
	var heap bytes.Buffer
	if err == nil && p.cfg.Heap {
		if hp := pprof.Lookup("heap"); hp != nil {
			err = hp.WriteTo(&heap, 0)
		}
	}
	p.mu.Lock()
	p.busy = false
	done := p.cfg.Now().UnixMilli()
	pr, kept := p.profiles[id] // may have been evicted mid-capture
	if err != nil {
		p.failures++
		if kept {
			pr.State = "failed"
			pr.Error = err.Error()
			pr.DurationMS = done - pr.StartUnixMS
		}
	} else {
		p.captures++
		p.lastDone = done
		if kept {
			pr.State = "done"
			pr.CPU = cpu.Bytes()
			pr.CPUBytes = cpu.Len()
			pr.Heap = heap.Bytes()
			pr.HeapBytes = heap.Len()
			pr.DurationMS = done - pr.StartUnixMS
		}
	}
	p.mu.Unlock()
	msg := "profile captured"
	ev := Event{ProfileID: id, TraceID: traceID, Attrs: []Attr{{Key: "trigger", Value: trigger}}}
	if err != nil {
		msg = "profile capture failed"
		ev.Attrs = append(ev.Attrs, Attr{Key: "error", Value: err.Error()})
	}
	p.cfg.Journal.Append(TypeProfileCapture, msg, ev)
}

// Get returns a snapshot of one profile by id.
func (p *ProfileStore) Get(id string) (Profile, bool) {
	if p == nil {
		return Profile{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	pr, ok := p.profiles[id]
	if !ok {
		return Profile{}, false
	}
	return *pr, true
}

// List returns snapshots of every retained profile, oldest first.
func (p *ProfileStore) List() []Profile {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Profile, 0, len(p.order))
	for _, id := range p.order {
		if pr, ok := p.profiles[id]; ok {
			out = append(out, *pr)
		}
	}
	return out
}

// ProfileStats is a point-in-time snapshot of the store's health.
type ProfileStats struct {
	Enabled           bool              `json:"enabled"`
	Stored            int               `json:"stored"`
	Captures          uint64            `json:"captures"`
	Failures          uint64            `json:"failures"`
	Skipped           map[string]uint64 `json:"skipped,omitempty"`
	LastCaptureUnixMS int64             `json:"lastCaptureUnixMs"`
}

// Stats snapshots the store. Safe on nil.
func (p *ProfileStore) Stats() ProfileStats {
	if p == nil {
		return ProfileStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := ProfileStats{
		Enabled:           p.Enabled(),
		Stored:            len(p.order),
		Captures:          p.captures,
		Failures:          p.failures,
		LastCaptureUnixMS: p.lastDone,
	}
	if len(p.skipped) > 0 {
		s.Skipped = make(map[string]uint64, len(p.skipped))
		for k, v := range p.skipped {
			s.Skipped[k] = v
		}
	}
	return s
}

// WriteMetrics appends the profile-capture Prometheus families to w. A nil
// store writes the full zeroed schema.
func (p *ProfileStore) WriteMetrics(w io.Writer) error {
	s := p.Stats()
	pw := promtext.NewWriter(w)
	pw.Counter("solverd_profile_capture_total", "Anomaly-triggered pprof captures completed.").Uint(s.Captures)
	pw.Counter("solverd_profile_capture_failures_total", "Anomaly-triggered pprof captures that failed.").Uint(s.Failures)
	pw.Counter("solverd_profile_capture_skipped_total", "Capture requests skipped, by reason.")
	reasons := append([]string(nil), ProfileSkipReasons...)
	for r := range s.Skipped {
		if !containsString(reasons, r) {
			reasons = append(reasons, r)
		}
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		pw.Uint(s.Skipped[r], "reason", r)
	}
	pw.Gauge("solverd_profile_capture_stored", "Captured profiles currently retained.").Int(s.Stored)
	pw.Gauge("solverd_profile_capture_last_unix_seconds", "Wall time of the last completed capture (0 before any).").Float(float64(s.LastCaptureUnixMS) / 1000)
	return pw.Err()
}

func containsString(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}
