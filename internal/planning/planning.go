// Package planning layers capacity-planning queries over the MVA solvers —
// the use the paper's introduction motivates: validating Service Level
// Agreements before deployment ("with 100 users the response time should be
// less than 1 second per page; the maximum CPU utilization with 500
// concurrent users should be less than 50%") and predicting "future
// performance indexes under changes in hardware or assumptions on
// concurrency".
//
// Queries solve the model with MVASD when a demand model is supplied
// (honouring concurrency-varying demands) and with the exact multi-server
// MVA otherwise.
package planning

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/queueing"
)

// SLA is a set of service-level requirements evaluated at a population.
type SLA struct {
	// MaxResponseTime caps R (seconds); 0 disables the check.
	MaxResponseTime float64
	// MaxCycleTime caps R+Z (seconds); 0 disables.
	MaxCycleTime float64
	// MinThroughput floors X (transactions/second); 0 disables.
	MinThroughput float64
	// MaxUtilization caps every station's per-server utilization in
	// (0, 1]; 0 disables. Named stations can override via StationCaps.
	MaxUtilization float64
	// StationCaps caps specific stations' utilization by name.
	StationCaps map[string]float64
}

// Violation describes one failed SLA clause.
type Violation struct {
	// Clause identifies the failed requirement.
	Clause string
	// Have and Want are the measured and required values.
	Have, Want float64
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: have %.4g, want %.4g", v.Clause, v.Have, v.Want)
}

// Plan couples a model with an optional varying-demand model.
type Plan struct {
	// Model is the network under study.
	Model *queueing.Model
	// Demands optionally supplies concurrency-varying demands (MVASD);
	// nil solves with the model's constant demands (Algorithm 2).
	Demands core.DemandModel
	// Options tunes the MVASD run.
	Options core.MVASDOptions
}

// solve runs the appropriate solver to maxN.
func (p *Plan) solve(maxN int) (*core.Result, error) {
	return p.solveContext(context.Background(), maxN)
}

// solveContext runs the appropriate solver to maxN under ctx.
func (p *Plan) solveContext(ctx context.Context, maxN int) (*core.Result, error) {
	if p.Model == nil {
		return nil, errors.New("planning: nil model")
	}
	if p.Demands != nil {
		return core.MVASDWithContext(ctx, p.Model, maxN, p.Demands, p.Options)
	}
	res, _, err := core.ExactMVAMultiServerWithContext(ctx, p.Model, maxN, core.MultiServerOptions{TraceStation: -1})
	return res, err
}

// Check evaluates the SLA at population n and returns all violations
// (empty slice = compliant).
func (p *Plan) Check(n int, sla SLA) ([]Violation, error) {
	return p.CheckContext(context.Background(), n, sla)
}

// CheckContext is Check with a cancellable solve, for callers (like the
// solverd service) that impose per-request deadlines.
func (p *Plan) CheckContext(ctx context.Context, n int, sla SLA) ([]Violation, error) {
	res, err := p.solveContext(ctx, n)
	if err != nil {
		return nil, err
	}
	if err := finiteAt(res, n); err != nil {
		return nil, err
	}
	return checkAt(res, p.Model, n, sla), nil
}

// finiteAt returns queueing.ErrNotFinite when population n's solved row holds
// a NaN or ±Inf (say, demands that overflow): no SLA can be judged on it.
func finiteAt(res *core.Result, n int) error {
	x, r, cycle, err := res.At(n)
	if err != nil {
		return nil // checkAt reports populations out of the solved range
	}
	for _, v := range res.AppendUtilRow([]float64{x, r, cycle}, n-1) {
		if v-v != 0 {
			return queueing.ErrNotFinite
		}
	}
	return nil
}

func checkAt(res *core.Result, m *queueing.Model, n int, sla SLA) []Violation {
	var out []Violation
	x, r, cycle, err := res.At(n)
	if err != nil {
		return []Violation{{Clause: "population out of solved range", Have: float64(n)}}
	}
	if sla.MaxResponseTime > 0 && r > sla.MaxResponseTime {
		out = append(out, Violation{Clause: "response time", Have: r, Want: sla.MaxResponseTime})
	}
	if sla.MaxCycleTime > 0 && cycle > sla.MaxCycleTime {
		out = append(out, Violation{Clause: "cycle time", Have: cycle, Want: sla.MaxCycleTime})
	}
	if sla.MinThroughput > 0 && x < sla.MinThroughput {
		out = append(out, Violation{Clause: "throughput", Have: x, Want: sla.MinThroughput})
	}
	util := res.UtilRow(n - 1)
	for k, name := range res.StationNames {
		cap := sla.MaxUtilization
		if v, ok := sla.StationCaps[name]; ok {
			cap = v
		}
		if cap > 0 && util[k] > cap {
			out = append(out, Violation{
				Clause: "utilization of " + name,
				Have:   util[k], Want: cap,
			})
		}
	}
	_ = m
	return out
}

// MaxUsersUnderSLA returns the largest population in [1, limit] at which the
// SLA holds (0 if it fails even at N=1). SLA metrics are monotone in N for
// constant demands; with varying demands the first violating population is
// still what a capacity planner wants, so the scan stops there.
func (p *Plan) MaxUsersUnderSLA(limit int, sla SLA) (int, error) {
	return p.MaxUsersUnderSLAContext(context.Background(), limit, sla)
}

// MaxUsersUnderSLAContext is MaxUsersUnderSLA with a cancellable solve.
func (p *Plan) MaxUsersUnderSLAContext(ctx context.Context, limit int, sla SLA) (int, error) {
	if limit < 1 {
		return 0, fmt.Errorf("planning: limit %d", limit)
	}
	res, err := p.solveContext(ctx, limit)
	if err != nil {
		return 0, err
	}
	for n := 1; n <= limit; n++ {
		if err := finiteAt(res, n); err != nil {
			return 0, err
		}
		if len(checkAt(res, p.Model, n, sla)) > 0 {
			return n - 1, nil
		}
	}
	return limit, nil
}

// MinServersForSLA returns the smallest server count for the named station
// (scanning 1..maxServers) such that the SLA holds at population n. The
// station's demand is held fixed (more servers, same per-visit work).
// Returns an error when even maxServers cannot satisfy the SLA.
//
// Only the constant-demand solver is used: scaling a station invalidates a
// measured demand model, so what-if runs use the model's demands as-is.
func MinServersForSLA(m *queueing.Model, station string, n, maxServers int, sla SLA) (int, error) {
	idx := m.StationIndex(station)
	if idx < 0 {
		return 0, fmt.Errorf("planning: no station %q", station)
	}
	if maxServers < 1 {
		return 0, fmt.Errorf("planning: maxServers %d", maxServers)
	}
	trial := *m
	trial.Stations = append([]queueing.Station(nil), m.Stations...)
	for c := 1; c <= maxServers; c++ {
		trial.Stations[idx].Servers = c
		res, _, err := core.ExactMVAMultiServer(&trial, n, core.MultiServerOptions{TraceStation: -1})
		if err != nil {
			return 0, err
		}
		if len(checkAt(res, &trial, n, sla)) == 0 {
			return c, nil
		}
	}
	return 0, fmt.Errorf("planning: SLA unreachable for %q even with %d servers", station, maxServers)
}

// SpeedupScenario scales a station's service time by factor (0.5 = twice as
// fast — e.g. an SSD swap for the database disk) and returns the new model.
func SpeedupScenario(m *queueing.Model, station string, factor float64) (*queueing.Model, error) {
	idx := m.StationIndex(station)
	if idx < 0 {
		return nil, fmt.Errorf("planning: no station %q", station)
	}
	if factor <= 0 {
		return nil, fmt.Errorf("planning: factor %g", factor)
	}
	out := *m
	out.Name = fmt.Sprintf("%s (%s ×%.2g)", m.Name, station, factor)
	out.Stations = append([]queueing.Station(nil), m.Stations...)
	out.Stations[idx].ServiceTime *= factor
	return &out, nil
}

// Comparison reports a what-if scenario against the baseline at population n.
type Comparison struct {
	BaselineX, ScenarioX         float64
	BaselineCycle, ScenarioCycle float64
	// XGain is ScenarioX/BaselineX − 1.
	XGain float64
	// Bottleneck names the scenario's limiting station.
	Bottleneck string
}

// Compare solves baseline and scenario at population n.
func Compare(baseline, scenario *queueing.Model, n int) (*Comparison, error) {
	b, _, err := core.ExactMVAMultiServer(baseline, n, core.MultiServerOptions{TraceStation: -1})
	if err != nil {
		return nil, err
	}
	s, _, err := core.ExactMVAMultiServer(scenario, n, core.MultiServerOptions{TraceStation: -1})
	if err != nil {
		return nil, err
	}
	_, bIdx := scenario.MaxDemand()
	c := &Comparison{
		BaselineX:     b.X[n-1],
		ScenarioX:     s.X[n-1],
		BaselineCycle: b.Cycle[n-1],
		ScenarioCycle: s.Cycle[n-1],
		Bottleneck:    scenario.Stations[bIdx].Name,
	}
	if c.BaselineX > 0 {
		c.XGain = c.ScenarioX/c.BaselineX - 1
	}
	return c, nil
}
