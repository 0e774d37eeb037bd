// Package admission closes the self-model loop: it turns the node's live
// MVASD-predicted saturation knee (internal/selfmodel) into an admission
// decision ahead of the worker pool. It is only the gate: concurrent solves
// of one model wait on the solve cache's entry lock (internal/server), which
// reports them here so the coalesced counter and waiter gauge stay in one
// /metrics section.
//
// The gate compares the sampled in-flight count against the predicted
// max-safe concurrency — the saturation knee, optionally tightened by a p99
// bound — exactly the quantity the paper's 3%/9% validation bounds keep
// honest. Three modes:
//
//   - off: the gate is inert, zero overhead — the node behaves as before
//     the subsystem existed;
//   - observe (default): every request is evaluated and counted, none is
//     refused — behavior stays byte-identical to off while the counters show
//     what enforce *would* have done;
//   - enforce: a request arriving past the knee is refused; the server sheds
//     it with 429 + Retry-After derived from the predicted drain time, and
//     the cluster gateway first tries to redirect it to a ring peer with
//     positive predicted headroom.
package admission

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/selfmodel"
)

// Mode selects how the gate acts on its decision. The zero value is
// ModeObserve: a zero Config is backward compatible — nothing is ever
// refused — while the admission counters start reporting.
type Mode int

const (
	// ModeObserve evaluates and counts every request but never refuses one.
	ModeObserve Mode = iota
	// ModeOff disables the gate entirely (no evaluation, counters stay 0).
	ModeOff
	// ModeEnforce refuses requests past the predicted safe concurrency.
	ModeEnforce
)

// String renders the flag spelling of the mode.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeEnforce:
		return "enforce"
	default:
		return "observe"
	}
}

// Modes lists every mode in flag-documentation order.
var Modes = []Mode{ModeOff, ModeObserve, ModeEnforce}

// ParseMode parses the -shed-mode flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off":
		return ModeOff, nil
	case "observe", "":
		return ModeObserve, nil
	case "enforce":
		return ModeEnforce, nil
	}
	return ModeObserve, fmt.Errorf("admission: unknown shed mode %q (want off, observe or enforce)", s)
}

// Config tunes one node's admission controller. The zero value observes.
type Config struct {
	// Mode is the gate's action mode (default observe).
	Mode Mode
	// RetryAfterMin/Max clamp the shed response's Retry-After derivation
	// (defaults 1s and 60s).
	RetryAfterMin, RetryAfterMax time.Duration
}

func (c *Config) defaults() {
	if c.RetryAfterMin <= 0 {
		c.RetryAfterMin = time.Second
	}
	if c.RetryAfterMax <= 0 {
		c.RetryAfterMax = 60 * time.Second
	}
}

// Decision is one evaluated request. InFlight includes the request being
// decided (the server's middleware registers the request with the self-model
// before consulting the gate), so a request is within capacity when
// Headroom >= 0 — it is the MaxSafeN-th concurrent request, not the one past
// it.
type Decision struct {
	// Admit is false only in enforce mode for a ready model past its safe
	// concurrency. The caller sheds (429 + Retry-After) or redirects.
	Admit bool
	// Enforced reports the controller runs in enforce mode.
	Enforced bool
	// Ready reports the self-model had a solved curve to decide by; an
	// unready model always admits (warming up is not overload).
	Ready bool
	// OverCapacity reports the request arrived past the predicted safe
	// concurrency — set in observe mode too, where it is the "would shed"
	// signal.
	OverCapacity bool
	// InFlight / MaxSafeN / Headroom are the evaluated figures
	// (Headroom = MaxSafeN − InFlight, negative past saturation).
	InFlight, MaxSafeN, Headroom int
	// RetryAfter is the predicted drain time until a slot frees, populated
	// when OverCapacity: the excess in-flight requests divided by the
	// predicted throughput at the safe concurrency.
	RetryAfter time.Duration
}

// RetryAfterSeconds renders RetryAfter for the HTTP header: whole seconds,
// rounded up, at least 1.
func (d Decision) RetryAfterSeconds() int {
	s := int(math.Ceil(d.RetryAfter.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}

// Controller is one node's admission gate. All methods are safe for
// concurrent use and valid on a nil receiver (admit everything, count
// nothing), so callers can leave the hooks unconditional.
type Controller struct {
	cfg Config
	mon *selfmodel.Monitor

	admitted     atomic.Uint64
	overCapacity atomic.Uint64
	shed         atomic.Uint64
	redirected   atomic.Uint64
	coalesced    atomic.Uint64
	waiters      atomic.Int64

	// jn/prof feed the event journal and anomaly profile store (SetJournal;
	// nil-safe). Shed events are coalesced into bursts so a storm of refusals
	// appends a bounded event stream: at most one TypeShedBurst event per
	// second, carrying the count refused since the previous event, and one
	// profile capture per burst (a gap of burstGap starts a new burst).
	jn        *journal.Journal
	prof      *journal.ProfileStore
	now       func() time.Time
	burstMu   sync.Mutex
	burstPend int
	lastShed  time.Time
	lastEmit  time.Time
}

// burstGap is the idle stretch that ends a shed burst: the next refusal
// after it starts a fresh burst (and may trigger a new profile capture).
const burstGap = 5 * time.Second

// New builds a controller deciding by mon's live self-model (nil mon is
// valid: the gate admits everything until a monitor exists — it never will on
// a nil monitor).
func New(cfg Config, mon *selfmodel.Monitor) *Controller {
	cfg.defaults()
	return &Controller{cfg: cfg, mon: mon, now: time.Now}
}

// SetJournal wires the controller to the event journal and the anomaly
// profile store (both nil-safe) and records the gate's active mode as a
// TypeAdmissionMode event — the mode is fixed per process, so the one event
// documents the transition from the previous process's configuration.
// Call before serving traffic.
func (c *Controller) SetJournal(jn *journal.Journal, prof *journal.ProfileStore) {
	if c == nil {
		return
	}
	c.jn, c.prof = jn, prof
	jn.Append(journal.TypeAdmissionMode,
		fmt.Sprintf("admission gate mode %s", c.cfg.Mode),
		journal.Event{Attrs: []journal.Attr{{Key: "mode", Value: c.cfg.Mode.String()}}})
}

// Mode returns the controller's action mode.
func (c *Controller) Mode() Mode {
	if c == nil {
		return ModeObserve
	}
	return c.cfg.Mode
}

// Evaluate decides one request against the live self-model and keeps the
// admitted/over-capacity counters. The caller acts on Admit; a refusal it
// resolves by forwarding elsewhere is recorded with RecordRedirected, one it
// refuses with RecordShed.
func (c *Controller) Evaluate() Decision {
	d := Decision{Admit: true}
	if c == nil || c.cfg.Mode == ModeOff {
		return d
	}
	d.Enforced = c.cfg.Mode == ModeEnforce
	rep := c.mon.Report()
	if rep == nil || !rep.Ready {
		c.admitted.Add(1)
		return d
	}
	d.Ready = true
	d.InFlight = c.mon.InFlight()
	d.MaxSafeN = rep.MaxSafeN
	d.Headroom = rep.MaxSafeN - d.InFlight
	if d.Headroom >= 0 {
		c.admitted.Add(1)
		return d
	}
	d.OverCapacity = true
	c.overCapacity.Add(1)
	d.RetryAfter = c.retryAfter(rep, d.InFlight)
	if d.Enforced {
		d.Admit = false
		return d
	}
	c.admitted.Add(1)
	return d
}

// retryAfter predicts how long the caller should back off: the requests that
// must drain before one more fits (the excess over MaxSafeN), divided by the
// predicted throughput at the safe concurrency — the model's own drain rate,
// not a guess — clamped to [RetryAfterMin, RetryAfterMax].
func (c *Controller) retryAfter(rep *selfmodel.Report, inFlight int) time.Duration {
	excess := inFlight - rep.MaxSafeN
	if excess < 1 {
		excess = 1
	}
	x := predictedXAt(rep, rep.MaxSafeN)
	if x <= 0 {
		return c.cfg.RetryAfterMax
	}
	d := time.Duration(float64(excess) / x * float64(time.Second))
	if d < c.cfg.RetryAfterMin {
		return c.cfg.RetryAfterMin
	}
	if d > c.cfg.RetryAfterMax {
		return c.cfg.RetryAfterMax
	}
	return d
}

// predictedXAt reads the predicted throughput at concurrency n off the
// report's (downsampled) curve: the first point at or past n, else the last.
func predictedXAt(rep *selfmodel.Report, n int) float64 {
	x := 0.0
	for _, p := range rep.Curve {
		x = p.X
		if p.N >= n {
			break
		}
	}
	return x
}

// RecordShed counts one request refused with 429 + Retry-After and feeds
// the journal's shed-burst coalescer: the first refusal after an idle gap
// opens a burst (triggering a rate-limited profile capture of the node
// under the load that made it shed), and at most one event per second
// carries the refusals accumulated since the last one.
func (c *Controller) RecordShed() {
	if c == nil {
		return
	}
	c.shed.Add(1)
	if c.jn == nil && c.prof == nil {
		return
	}
	c.burstMu.Lock()
	now := c.now()
	newBurst := c.lastShed.IsZero() || now.Sub(c.lastShed) > burstGap
	c.lastShed = now
	c.burstPend++
	emit := newBurst || now.Sub(c.lastEmit) >= time.Second
	count := 0
	if emit {
		count, c.burstPend = c.burstPend, 0
		c.lastEmit = now
	}
	c.burstMu.Unlock()
	if !emit {
		return
	}
	var profileID string
	if newBurst {
		profileID, _ = c.prof.Capture(journal.TypeShedBurst, "")
	}
	c.jn.Append(journal.TypeShedBurst,
		fmt.Sprintf("shed %d request(s) past predicted safe concurrency", count),
		journal.Event{
			ProfileID: profileID,
			Attrs: []journal.Attr{
				{Key: "count", Value: fmt.Sprintf("%d", count)},
				{Key: "new_burst", Value: fmt.Sprintf("%t", newBurst)},
			},
		})
}

// RecordRedirected counts one refused request resolved by forwarding it to a
// ring peer with predicted headroom.
func (c *Controller) RecordRedirected() {
	if c != nil {
		c.redirected.Add(1)
	}
}

// RecordCoalesced counts one solve answered from another request's run: it
// waited on a solve-cache entry lock and found the rows published.
func (c *Controller) RecordCoalesced() {
	if c != nil {
		c.coalesced.Add(1)
	}
}

// AddWaiters moves the gauge of solves blocked on a solve-cache entry lock
// by delta: +1 when one starts waiting, -1 when it stops.
func (c *Controller) AddWaiters(delta int) {
	if c != nil {
		c.waiters.Add(int64(delta))
	}
}

// Stats is the wire/metrics snapshot of the controller.
type Stats struct {
	Mode            Mode
	Admitted        uint64
	OverCapacity    uint64
	Shed            uint64
	Redirected      uint64
	Coalesced       uint64
	CoalesceWaiters int
}

// Stats snapshots the counters (zero on a nil controller).
func (c *Controller) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Mode:            c.cfg.Mode,
		Admitted:        c.admitted.Load(),
		OverCapacity:    c.overCapacity.Load(),
		Shed:            c.shed.Load(),
		Redirected:      c.redirected.Load(),
		Coalesced:       c.coalesced.Load(),
		CoalesceWaiters: int(c.waiters.Load()),
	}
}
