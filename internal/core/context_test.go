package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/queueing"
)

func ctxTestModel() *queueing.Model {
	return &queueing.Model{
		Name:      "ctx-test",
		ThinkTime: 1,
		Stations: []queueing.Station{
			{Name: "app/cpu", Kind: queueing.CPU, Servers: 4, Visits: 1, ServiceTime: 0.02},
			{Name: "db/disk", Kind: queueing.Disk, Servers: 1, Visits: 3, ServiceTime: 0.005},
		},
	}
}

func TestWithContextMatchesPlainSolve(t *testing.T) {
	m := ctxTestModel()
	want, _, err := ExactMVAMultiServer(m, 100, MultiServerOptions{TraceStation: -1})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ExactMVAMultiServerWithContext(context.Background(), m, 100, MultiServerOptions{TraceStation: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.X {
		if want.X[i] != got.X[i] || want.R[i] != got.R[i] {
			t.Fatalf("n=%d: context variant diverged: X %g vs %g, R %g vs %g",
				i+1, want.X[i], got.X[i], want.R[i], got.R[i])
		}
	}
}

func TestAlreadyCancelledContext(t *testing.T) {
	m := ctxTestModel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dm := ConstantDemands(m.Demands())
	run := func(s *Solver, err error) error {
		if err != nil {
			return err
		}
		return s.RunContext(ctx, 50)
	}
	cases := map[string]func() error{
		"exact":      func() error { return run(NewExactMVASolver(m)) },
		"schweitzer": func() error { return run(NewSchweitzerSolver(m, SchweitzerOptions{})) },
		"multiserver": func() error {
			_, _, err := ExactMVAMultiServerWithContext(ctx, m, 50, MultiServerOptions{TraceStation: -1})
			return err
		},
		"mvasd":    func() error { _, err := MVASDWithContext(ctx, m, 50, dm, MVASDOptions{}); return err },
		"mvasd-1s": func() error { return run(NewMVASDSingleServerSolver(m, dm, MVASDOptions{})) },
	}
	for name, solve := range cases {
		if err := solve(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: want context.Canceled, got %v", name, err)
		}
	}
}

// TestCancelMidRecursion cancels from inside the demand model at a known
// population, proving the per-step check fires mid-recursion rather than only
// at entry.
func TestCancelMidRecursion(t *testing.T) {
	m := ctxTestModel()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base := m.Demands()
	dm := FuncDemands{K: len(base), F: func(station, n int) float64 {
		if n == 100 {
			cancel()
		}
		return base[station]
	}}
	_, err := MVASDWithContext(ctx, m, 10_000, dm, MVASDOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestCancelMidFixedPoint cancels during the demand/throughput fixed point of
// a single population step (Section-7 mode): the per-iteration check must
// abort without waiting for convergence or the next population.
func TestCancelMidFixedPoint(t *testing.T) {
	m := ctxTestModel()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base := m.Demands()
	iter := 0
	// Alternate the demands every fixed-point iteration so it can never
	// converge; only the per-iteration cancellation check can end the solve
	// (maxN is 1, so the per-step check runs exactly once, before cancel).
	dm := throughputFunc{k: len(base), f: func(station, n int, x float64) float64 {
		if station == 0 {
			iter++
		}
		if iter > 25 {
			cancel()
		}
		return base[station] * (1 + 0.5*float64(iter%2))
	}}
	_, err := MVASDWithContext(ctx, m, 1, dm, MVASDOptions{FixedPointMaxIter: 1_000_000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// throughputFunc is a throughput-dependent FuncDemands analogue for tests.
type throughputFunc struct {
	k int
	f func(station, n int, x float64) float64
}

func (t throughputFunc) DemandAt(station, n int, x float64) float64 { return t.f(station, n, x) }
func (throughputFunc) DependsOnThroughput() bool                    { return true }
func (t throughputFunc) Stations() int                              { return t.k }
