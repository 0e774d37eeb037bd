package estimate

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/journal"
)

// TriggerReasons enumerates every re-estimation trigger the controller
// counts; the metrics exposition always emits all of them.
var TriggerReasons = []string{"throughput", "cycle_time", "manual"}

// Controller closes the loop between the deviation tracker and the
// estimator: every measured (throughput, cycle time) pair is scored against
// the current snapshot's MVASD prediction through DeviationTracker,
// and a breach of the paper's 3%/9% bounds — which previously only
// force-recorded a trace — now additionally triggers a re-fit of the demand
// curves and, through OnRefit, invalidation of whatever the stale snapshot
// left behind (the server hooks its solve cache here).
type Controller struct {
	// OnRefit, when set, runs after every successful re-fit with the stale
	// and fresh snapshot versions. It is called with the controller's lock
	// held — keep it fast and do not call back into the controller.
	OnRefit func(oldVersion, newVersion uint64)

	// Journal, when set, receives a TypeRefit event for every re-estimation
	// attempt and a TypeSnapshot event for every published version change
	// (nil-safe; Append takes only a leaf lock, so appending under mu is
	// fine). Set before serving traffic.
	Journal *journal.Journal

	est     *Estimator
	tracker *DeviationTracker

	mu sync.Mutex
	// solver is the prediction solver for solverVersion's snapshot, grown
	// lazily to the largest concurrency checked so far.
	solver        *core.Solver
	solverVersion uint64
	triggers      map[string]uint64
}

// NewController wires an estimator to a deviation tracker. A nil tracker
// gets a fresh standalone one (no flight recorder).
func NewController(est *Estimator, tracker *DeviationTracker) *Controller {
	if tracker == nil {
		tracker = NewDeviationTracker(nil)
	}
	return &Controller{
		est:      est,
		tracker:  tracker,
		triggers: make(map[string]uint64),
	}
}

// Tracker returns the wired deviation tracker.
func (c *Controller) Tracker() *DeviationTracker { return c.tracker }

// CheckResult reports one closed-loop evaluation.
type CheckResult struct {
	Concurrency    int
	PredictedX     float64
	PredictedCycle float64
	// ThroughputDeviation/CycleDeviation are |predicted−measured|/measured.
	ThroughputDeviation float64
	CycleDeviation      float64
	ThroughputBreach    bool
	CycleBreach         bool
	// Reestimated reports that a breach triggered a successful re-fit;
	// OldVersion/Version are the before/after snapshot versions.
	Reestimated bool
	OldVersion  uint64
	Version     uint64
	// RefitError carries a failed re-fit ("" otherwise): the breach stands,
	// the stale snapshot remains published, and the caller keeps feeding
	// samples until a fit can succeed.
	RefitError string
}

// ObserveSystem scores one measured system-level pair against the current
// snapshot's MVASD prediction at the given concurrency. measuredCycle (R+Z,
// seconds) may be 0 to skip the cycle-time check. Breaches feed the tracker
// (force-recording a deviation trace as before) and trigger re-estimation.
func (c *Controller) ObserveSystem(n int, measuredX, measuredCycle float64) (CheckResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res := CheckResult{Concurrency: n, Version: c.est.Version()}
	predX, predCycle, err := c.predictLocked(n)
	if err != nil {
		return res, err
	}
	res.PredictedX, res.PredictedCycle = predX, predCycle
	reason := ""
	if measuredX > 0 {
		res.ThroughputDeviation, res.ThroughputBreach = c.tracker.ObserveThroughput(n, measuredX, predX)
		if res.ThroughputBreach {
			reason = "throughput"
		}
	}
	if measuredCycle > 0 {
		res.CycleDeviation, res.CycleBreach = c.tracker.ObserveCycleTime(n, measuredCycle, predCycle)
		if res.CycleBreach && reason == "" {
			reason = "cycle_time"
		}
	}
	if reason == "" {
		return res, nil
	}
	old, fresh, err := c.refitLocked(reason)
	res.OldVersion = old
	if err != nil {
		res.RefitError = err.Error()
		return res, nil
	}
	res.Reestimated = true
	res.Version = fresh
	return res, nil
}

// Refit forces a re-estimation outside any breach (an operator poke or a
// scheduled refresh), counted under the "manual" trigger reason.
func (c *Controller) Refit() (oldVersion, newVersion uint64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.refitLocked("manual")
}

// refitLocked re-fits the estimator, invalidates the prediction solver and
// runs the OnRefit hook (mu held). The trigger is counted even when the fit
// fails: the breach happened, re-estimation was attempted.
func (c *Controller) refitLocked(reason string) (oldVersion, newVersion uint64, err error) {
	c.triggers[reason]++
	oldVersion = c.est.Version()
	snap, err := c.est.Fit()
	if err != nil {
		c.Journal.Append(journal.TypeRefit, "re-estimation failed", journal.Event{
			Attrs: []journal.Attr{
				{Key: "reason", Value: reason},
				{Key: "version", Value: fmt.Sprintf("%d", oldVersion)},
				{Key: "error", Value: err.Error()},
			},
		})
		return oldVersion, oldVersion, err
	}
	c.dropSolverLocked()
	c.Journal.Append(journal.TypeRefit,
		fmt.Sprintf("demand curves re-fit (%s trigger)", reason), journal.Event{
			Attrs: []journal.Attr{
				{Key: "reason", Value: reason},
				{Key: "old_version", Value: fmt.Sprintf("%d", oldVersion)},
				{Key: "new_version", Value: fmt.Sprintf("%d", snap.Version)},
			},
		})
	c.Journal.Append(journal.TypeSnapshot,
		fmt.Sprintf("demand snapshot v%d published", snap.Version), journal.Event{
			Attrs: []journal.Attr{
				{Key: "version", Value: fmt.Sprintf("%d", snap.Version)},
			},
		})
	if c.OnRefit != nil {
		c.OnRefit(oldVersion, snap.Version)
	}
	return oldVersion, snap.Version, nil
}

// Predict returns the current snapshot's MVASD prediction at concurrency n.
func (c *Controller) Predict(n int) (x, cycle float64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.predictLocked(n)
}

// predictLocked solves (or extends) the prediction solver to n (mu held).
// The solver is reused across calls while the snapshot version is stable, so
// a stream of checks at growing concurrencies costs one recursion total.
func (c *Controller) predictLocked(n int) (x, cycle float64, err error) {
	snap := c.est.Snapshot()
	if snap == nil {
		return 0, 0, fmt.Errorf("%w: no snapshot fitted yet", ErrNotReady)
	}
	if c.solver == nil || c.solverVersion != snap.Version {
		dm, err := snap.DemandModel()
		if err != nil {
			return 0, 0, err
		}
		sol, err := core.NewMVASDSolver(snap.Model, dm, core.MVASDOptions{})
		if err != nil {
			return 0, 0, err
		}
		c.dropSolverLocked()
		c.solver, c.solverVersion = sol, snap.Version
	}
	if err := c.solver.Run(n); err != nil {
		return 0, 0, err
	}
	x, _, cycle, err = c.solver.Result().At(n)
	return x, cycle, err
}

// dropSolverLocked releases the cached prediction solver (mu held).
func (c *Controller) dropSolverLocked() {
	if c.solver != nil {
		c.solver.Release()
		c.solver = nil
	}
}

// Triggers returns a copy of the re-estimation trigger counts; every reason
// in TriggerReasons is present.
func (c *Controller) Triggers() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64, len(TriggerReasons))
	for _, r := range TriggerReasons {
		out[r] = c.triggers[r]
	}
	return out
}
