package simulation

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/queueing"
)

// OpenConfig controls an open-network simulation: Poisson arrivals at rate
// Lambda walk their station visits once and depart. The think-time field of
// the model is ignored (open customers do not cycle).
type OpenConfig struct {
	// Model is the network (stations only; ThinkTime ignored).
	Model *queueing.Model
	// Lambda is the arrival rate in customers/second.
	Lambda float64
	// Seed makes the run reproducible.
	Seed int64
	// WarmupTime is discarded virtual time before measuring (seconds).
	WarmupTime float64
	// MeasureTime is the measured window (seconds).
	MeasureTime float64
	// ServiceDist is the service-time distribution (default Exponential,
	// matching the M/M/C analysis).
	ServiceDist Distribution
}

// OpenStats is the measured output of an open run.
type OpenStats struct {
	// Lambda echoes the configured rate; ThroughputOut is the measured
	// departure rate (equal at steady state).
	Lambda        float64
	ThroughputOut float64
	// ResponseTime is the mean sojourn from arrival to departure (seconds).
	ResponseTime float64
	// Population is the time-average number of customers in the system.
	Population float64
	// Utilization[k] is station k's mean per-server utilization.
	Utilization []float64
	// QueueLen[k] is the time-average number at station k.
	QueueLen []float64
	// Completed counts departures inside the window.
	Completed int
}

// RunOpen simulates the open network and returns measured statistics.
func RunOpen(cfg OpenConfig) (*OpenStats, error) {
	if cfg.Model == nil {
		return nil, errors.New("simulation: nil model")
	}
	if err := cfg.Model.ValidateShape(); err != nil {
		return nil, err
	}
	if cfg.Lambda <= 0 {
		return nil, fmt.Errorf("simulation: arrival rate %g", cfg.Lambda)
	}
	if cfg.MeasureTime <= 0 {
		return nil, fmt.Errorf("simulation: measure time %g", cfg.MeasureTime)
	}
	m := cfg.Model
	rng := rand.New(rand.NewSource(cfg.Seed))
	k := len(m.Stations)
	stations := make([]*stationState, k)
	for i, st := range m.Stations {
		stations[i] = &stationState{servers: st.Servers, delay: st.Kind == queueing.Delay}
	}
	var (
		h   eventHeap
		seq int64
	)
	push := func(t float64, kind int, u *user, stn int) {
		seq++
		heap.Push(&h, &event{t: t, seq: seq, kind: kind, user: u, stn: stn})
	}
	endWarmup := cfg.WarmupTime
	endRun := cfg.WarmupTime + cfg.MeasureTime
	var (
		measure     bool
		completed   int
		respSum     float64
		inSystem    int
		popIntegral float64
		lastT       float64
	)
	advancePop := func(t float64) {
		if t > lastT {
			popIntegral += float64(inSystem) * (t - lastT)
			lastT = t
		}
	}
	serve := func(u *user, t float64, sIdx int) {
		s := cfg.ServiceDist.draw(rng, m.Stations[sIdx].ServiceTime)
		push(t+s, evServiceDone, u, sIdx)
	}
	var nextStep func(u *user, t float64)
	startVisit := func(u *user, t float64, sIdx int) {
		st := stations[sIdx]
		st.advance(t)
		if st.delay || st.busy < st.servers {
			st.busy++
			serve(u, t, sIdx)
		} else {
			st.queue = append(st.queue, u)
		}
	}
	nextStep = func(u *user, t float64) {
		if u.planPos >= len(u.plan) {
			// Departure.
			advancePop(t)
			inSystem--
			if measure {
				completed++
				respSum += t - u.txStart
			}
			return
		}
		sIdx := u.plan[u.planPos]
		u.planPos++
		startVisit(u, t, sIdx)
	}
	buildPlan := func(u *user) {
		u.plan = u.plan[:0]
		for sIdx, st := range m.Stations {
			v := int(st.Visits)
			if frac := st.Visits - float64(v); frac > 0 && rng.Float64() < frac {
				v++
			}
			for i := 0; i < v; i++ {
				u.plan = append(u.plan, sIdx)
			}
		}
		u.planPos = 0
	}
	// The arrival process: evThinkDone doubles as "arrival" here (the user
	// enters the network when it fires) and each arrival schedules the next.
	nextID := 0
	scheduleArrival := func(t float64) {
		gap := rng.ExpFloat64() / cfg.Lambda
		u := &user{id: nextID}
		nextID++
		push(t+gap, evThinkDone, u, -1)
	}
	scheduleArrival(0)
	for !h.Empty() {
		e := heap.Pop(&h).(*event)
		if e.t > endRun {
			break
		}
		now := e.t
		if !measure && now >= endWarmup {
			measure = true
			for _, st := range stations {
				st.advance(endWarmup)
				st.busyIntegral = 0
				st.queueIntegral = 0
				st.completions = 0
			}
			advancePop(endWarmup)
			popIntegral = 0
		}
		switch e.kind {
		case evThinkDone: // arrival
			advancePop(now)
			inSystem++
			u := e.user
			u.txStart = now
			buildPlan(u)
			scheduleArrival(now)
			nextStep(u, now)
		case evServiceDone:
			u := e.user
			st := stations[e.stn]
			st.advance(now)
			st.busy--
			if measure {
				st.completions++
			}
			if !st.delay && len(st.queue) > 0 {
				nxt := st.queue[0]
				st.queue = st.queue[1:]
				st.busy++
				serve(nxt, now, e.stn)
			}
			nextStep(u, now)
		}
	}
	for _, st := range stations {
		st.advance(endRun)
	}
	advancePop(endRun)
	window := cfg.MeasureTime
	out := &OpenStats{
		Lambda:      cfg.Lambda,
		Completed:   completed,
		Utilization: make([]float64, k),
		QueueLen:    make([]float64, k),
	}
	out.ThroughputOut = float64(completed) / window
	if completed > 0 {
		out.ResponseTime = respSum / float64(completed)
	}
	out.Population = popIntegral / window
	for i, st := range stations {
		out.Utilization[i] = st.busyIntegral / window / float64(st.servers)
		if st.delay {
			out.Utilization[i] = 0
		}
		out.QueueLen[i] = st.queueIntegral / window
	}
	return out, nil
}
