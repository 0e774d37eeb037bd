package admission

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/promtest"
	"repro/internal/selfmodel"
)

// truth mirrors the selfmodel package's deterministic ground truth: a
// 4-worker pool with a 10ms worker burst and 30ms off-worker overhead.
const (
	truthWorkers = 4
	truthDW      = 0.010
	truthDD      = 0.030
	truthMaxN    = 64
)

// readyMonitor builds a self-model monitor made ready with synthetic windows
// derived from the ground truth, exactly like a warmed-up node.
func readyMonitor(t *testing.T) *selfmodel.Monitor {
	t.Helper()
	dm := core.FuncDemands{K: 2, F: func(k, _ int) float64 {
		if k == 0 {
			return truthDW
		}
		return truthDD
	}}
	sol, err := core.NewMVASDSolver(selfmodel.SelfModel(truthWorkers), dm, core.MVASDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sol.Release()
	if err := sol.Run(truthMaxN); err != nil {
		t.Fatal(err)
	}
	res := sol.Result()

	m := selfmodel.New(selfmodel.Config{Workers: truthWorkers, MaxN: truthMaxN})
	var rep *selfmodel.Report
	for _, n := range []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32} {
		x := res.X[n-1]
		cycle := res.Cycle[n-1]
		lat := make([]time.Duration, 32)
		for i := range lat {
			lat[i] = time.Duration(cycle * float64(time.Second))
		}
		w := selfmodel.Window{
			Elapsed:         time.Second,
			Completions:     x,
			BusySeconds:     x * truthDW,
			StationSeconds:  x * res.ResidenceRow(n - 1)[0],
			InFlightSeconds: float64(n),
			Latencies:       lat,
		}
		for i := 0; i < m.Config().Estimate.MinSamples; i++ {
			rep = m.ObserveWindow(w)
		}
	}
	if rep == nil || !rep.Ready || rep.MaxSafeN <= 0 {
		t.Fatalf("monitor not ready: %+v", rep)
	}
	return m
}

func TestParseMode(t *testing.T) {
	cases := []struct {
		in   string
		want Mode
		ok   bool
	}{
		{"off", ModeOff, true},
		{"observe", ModeObserve, true},
		{"", ModeObserve, true},
		{"enforce", ModeEnforce, true},
		{"banana", ModeObserve, false},
	}
	for _, c := range cases {
		got, err := ParseMode(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	for _, m := range Modes {
		if got, err := ParseMode(m.String()); err != nil || got != m {
			t.Errorf("round-trip %v via %q: got %v, %v", m, m.String(), got, err)
		}
	}
	if ModeObserve != 0 {
		t.Fatal("the zero Mode must be observe: a zero Config has to stay backward compatible")
	}
}

func TestEvaluateModes(t *testing.T) {
	m := readyMonitor(t)
	safe := m.Report().MaxSafeN

	t.Run("off", func(t *testing.T) {
		c := New(Config{Mode: ModeOff}, m)
		d := c.Evaluate()
		if !d.Admit || d.Ready || d.Enforced {
			t.Fatalf("off mode must admit without evaluating: %+v", d)
		}
		if st := c.Stats(); st.Admitted != 0 || st.OverCapacity != 0 {
			t.Fatalf("off mode must keep counters at zero: %+v", st)
		}
	})

	t.Run("unready", func(t *testing.T) {
		c := New(Config{Mode: ModeEnforce}, selfmodel.New(selfmodel.Config{Workers: 2}))
		d := c.Evaluate()
		if !d.Admit || d.Ready {
			t.Fatalf("an unready model must admit (warming up is not overload): %+v", d)
		}
		if st := c.Stats(); st.Admitted != 1 {
			t.Fatalf("unready admit not counted: %+v", st)
		}
	})

	t.Run("observe-over-capacity", func(t *testing.T) {
		c := New(Config{Mode: ModeObserve}, m)
		for i := 0; i < safe+3; i++ {
			m.RequestBegin()
		}
		defer func() {
			for i := 0; i < safe+3; i++ {
				m.RequestEnd(time.Millisecond)
			}
		}()
		d := c.Evaluate()
		if !d.Admit || d.Enforced {
			t.Fatalf("observe mode must never refuse: %+v", d)
		}
		if !d.OverCapacity || d.Headroom >= 0 || d.RetryAfter <= 0 {
			t.Fatalf("over-capacity signal missing in observe mode: %+v", d)
		}
		st := c.Stats()
		if st.Admitted != 1 || st.OverCapacity != 1 {
			t.Fatalf("observe counters: %+v", st)
		}
	})

	t.Run("enforce", func(t *testing.T) {
		c := New(Config{Mode: ModeEnforce}, m)
		if d := c.Evaluate(); !d.Admit || !d.Ready || d.Headroom < 0 {
			t.Fatalf("idle enforce node must admit: %+v", d)
		}
		for i := 0; i < safe+3; i++ {
			m.RequestBegin()
		}
		defer func() {
			for i := 0; i < safe+3; i++ {
				m.RequestEnd(time.Millisecond)
			}
		}()
		d := c.Evaluate()
		if d.Admit || !d.Enforced || !d.OverCapacity {
			t.Fatalf("enforce past the knee must refuse: %+v", d)
		}
		if d.InFlight != safe+3 || d.MaxSafeN != safe || d.Headroom != -3 {
			t.Fatalf("decision figures: %+v (safe=%d)", d, safe)
		}
		if d.RetryAfter < time.Second || d.RetryAfter > 60*time.Second {
			t.Fatalf("Retry-After outside default clamp: %v", d.RetryAfter)
		}
		if s := d.RetryAfterSeconds(); s < 1 {
			t.Fatalf("header seconds must be at least 1: %d", s)
		}
		c.RecordShed()
		c.RecordRedirected()
		st := c.Stats()
		if st.OverCapacity != 1 || st.Shed != 1 || st.Redirected != 1 {
			t.Fatalf("enforce counters: %+v", st)
		}
	})
}

func TestRetryAfterClamp(t *testing.T) {
	m := readyMonitor(t)
	rep := m.Report()
	// At the default knee the predicted throughput is tens per second, so one
	// excess request drains in well under a second: the minimum clamps it up.
	c := New(Config{Mode: ModeEnforce, RetryAfterMin: 2 * time.Second}, m)
	if got := c.retryAfter(rep, rep.MaxSafeN+1); got != 2*time.Second {
		t.Fatalf("small excess must clamp to RetryAfterMin: %v", got)
	}
	// A huge excess overflows any drain estimate: the maximum clamps it down.
	c = New(Config{Mode: ModeEnforce, RetryAfterMax: 5 * time.Second}, m)
	if got := c.retryAfter(rep, rep.MaxSafeN+1_000_000); got != 5*time.Second {
		t.Fatalf("huge excess must clamp to RetryAfterMax: %v", got)
	}
	if d := (Decision{RetryAfter: 1500 * time.Millisecond}); d.RetryAfterSeconds() != 2 {
		t.Fatalf("header seconds must round up: %d", d.RetryAfterSeconds())
	}
}

func TestNilController(t *testing.T) {
	var c *Controller
	if d := c.Evaluate(); !d.Admit {
		t.Fatal("nil controller must admit")
	}
	c.RecordShed()
	c.RecordRedirected()
	c.RecordCoalesced()
	c.AddWaiters(1)
	c.AddWaiters(-1)
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil controller stats: %+v", st)
	}
	if c.Mode() != ModeObserve {
		t.Fatalf("nil controller mode: %v", c.Mode())
	}
	if err := c.WriteMetrics(&strings.Builder{}); err != nil {
		t.Fatalf("nil controller metrics: %v", err)
	}
}

func TestMetricsSchema(t *testing.T) {
	c := New(Config{Mode: ModeEnforce}, nil)
	var b strings.Builder
	if err := c.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	families := promtest.ParseExposition(t, out)
	promtest.LintFamilies(t, families)
	promtest.RequireFamilies(t, families,
		"solverd_admission_mode",
		"solverd_admission_admitted_total",
		"solverd_admission_over_capacity_total",
		"solverd_admission_shed_total",
		"solverd_admission_redirected_total",
		"solverd_admission_coalesced_total",
		"solverd_admission_coalesce_waiters",
	)
	if !strings.Contains(out, `solverd_admission_mode{mode="enforce"} 1`) {
		t.Fatalf("active mode series missing:\n%s", out)
	}
	if !strings.Contains(out, `solverd_admission_mode{mode="observe"} 0`) {
		t.Fatalf("inactive mode series missing:\n%s", out)
	}
}
