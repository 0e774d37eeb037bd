package server

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/modelio"
)

// dupSweep is a grid whose axes repeat values: thinkTimes {1, 2, 1} ×
// app/cpu {4, 2, 4} is 9 points but only 4 distinct models, and app/cpu=4
// is also the base model's own count.
func dupSweep(t *testing.T) *modelio.SweepRequest {
	t.Helper()
	req := &modelio.SweepRequest{
		SolveRequest: modelio.SolveRequest{Model: testModel()},
		Populations:  []int{5, 12},
		ThinkTimes:   []float64{1, 2, 1},
		Servers:      map[string][]int{"app/cpu": {4, 2, 4}},
	}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	return req
}

// TestSweepGroupsAnswersEachGroupOnce drives the sweep engine with a
// counting group function: each planned group is answered exactly once
// under its GroupKey, no more than Workers groups run at a time, and every
// member gets its group's answer under its own grid point, in Expand order.
func TestSweepGroupsAnswersEachGroupOnce(t *testing.T) {
	s := New(Config{Workers: 2})
	req := dupSweep(t)
	kb, err := req.KeyBase()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	calls := map[string]int{}
	var inFlight, peak atomic.Int32
	resp, err := s.SweepGroups(context.Background(), req, func(_ context.Context, p modelio.GridPoint, key string) modelio.SweepPointResult {
		if want := kb.GroupKey(p); key != want {
			t.Errorf("group %+v answered under key %s, want its GroupKey %s", p, key, want)
		}
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		id := fmt.Sprint(p.ThinkTime, p.Servers)
		mu.Lock()
		calls[id]++
		mu.Unlock()
		return modelio.SweepPointResult{Bottleneck: id, Rows: []modelio.SweepRow{{N: 1}}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 4 {
		t.Fatalf("group function saw %d distinct groups, want 4: %v", len(calls), calls)
	}
	for id, n := range calls {
		if n != 1 {
			t.Errorf("group %s answered %d times, want once", id, n)
		}
	}
	if got := peak.Load(); got > 2 {
		t.Errorf("%d groups in flight, want at most Workers=2", got)
	}
	points := mustExpand(t, req)
	if resp.GridSize != len(points) || len(resp.Points) != len(points) {
		t.Fatalf("grid %d with %d points, want %d", resp.GridSize, len(resp.Points), len(points))
	}
	for i, pr := range resp.Points {
		if !reflect.DeepEqual(pr.Point, points[i]) {
			t.Errorf("point %d is %+v, want %+v", i, pr.Point, points[i])
		}
		if want := fmt.Sprint(points[i].ThinkTime, points[i].Servers); pr.Bottleneck != want {
			t.Errorf("point %d carries group %s's answer, want %s's", i, pr.Bottleneck, want)
		}
	}
}

// TestSweepGroupsDeadlineFailsWholeGrid: when the deadline passes with
// groups unanswered, the engine returns the deadline error, not a partial
// grid.
func TestSweepGroupsDeadlineFailsWholeGrid(t *testing.T) {
	s := New(Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	resp, err := s.SweepGroups(ctx, dupSweep(t), func(ctx context.Context, p modelio.GridPoint, _ string) modelio.SweepPointResult {
		if p.ThinkTime == 2 {
			<-ctx.Done()
		}
		return modelio.SweepPointResult{}
	})
	if !errors.Is(err, context.DeadlineExceeded) || resp != nil {
		t.Fatalf("got %v, %v; want the deadline error and no grid", resp, err)
	}
}

// TestSweepSharesOneResultPerGroup pins that the local sweep extracts a
// group's rows once: members of one group share one row slice (and so one
// Recover of the decimated trajectory), while distinct groups do not.
func TestSweepSharesOneResultPerGroup(t *testing.T) {
	s := New(Config{Workers: 2})
	req := dupSweep(t)
	req.Algorithm = modelio.AlgoExact
	req.Decimate = 7 // n=5 falls between stored rows: Recover re-derives it
	resp, err := s.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	groups := req.PlanSweep(mustExpand(t, req))
	for _, g := range groups {
		first := resp.Points[g.Members[0]]
		if first.Error != "" || len(first.Rows) != 2 {
			t.Fatalf("group %+v: %+v", g.Point, first)
		}
		for _, m := range g.Members[1:] {
			if &resp.Points[m].Rows[0] != &first.Rows[0] {
				t.Errorf("group %+v: member %d has its own rows; pointResult ran per member", g.Point, m)
			}
		}
	}
	if &resp.Points[groups[0].Members[0]].Rows[0] == &resp.Points[groups[1].Members[0]].Rows[0] {
		t.Error("distinct groups share rows")
	}
	if got := s.metrics.solveRuns.Load(); got != uint64(len(groups)) {
		t.Errorf("%d solves for %d groups", got, len(groups))
	}
}

func mustExpand(t *testing.T, req *modelio.SweepRequest) []modelio.GridPoint {
	t.Helper()
	points, err := req.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	return points
}
