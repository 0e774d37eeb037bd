package core_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/queueing"
	"repro/internal/testbed"
)

// TestDeepSolveBoundedMemory is the deep-solve memory smoke: a decimated
// solve must retain memory proportional to the rows it stores, not the
// populations it advances through.
//
//   - exact: a three-tier model to N=10⁵ at stride 100 (≈1000 rows). The
//     4 MiB bound is ~50× the stored-row footprint and ~100× under what a
//     dense 10⁵-row trajectory would retain, so it fails loudly if
//     decimation ever starts accumulating per-population state.
//   - multiserver: Algorithm 2 on the VINS testbed model (three 16-core
//     CPUs among twelve stations) to N=10⁴ at stride 50 may retain no more
//     than its stored row matrices plus a constant. The state at a stored
//     row is rebuilt from the row, so any per-row state stored beside it —
//     a checkpoint copy is ~900 B a row, more than the row — breaks the
//     bound.
func TestDeepSolveBoundedMemory(t *testing.T) {
	threeTier := &queueing.Model{
		Name:      "deep-memory",
		ThinkTime: 1,
		Stations: []queueing.Station{
			{Name: "app/cpu", Kind: queueing.CPU, Servers: 4, Visits: 1, ServiceTime: 0.02},
			{Name: "db/disk", Kind: queueing.Disk, Servers: 1, Visits: 3, ServiceTime: 0.005},
			{Name: "lan", Kind: queueing.Delay, Servers: 1, Visits: 1, ServiceTime: 0.004},
		},
	}
	vins := testbed.VINS().Model(1)
	for _, tc := range []struct {
		name         string
		model        *queueing.Model
		maxN, stride int
		solver       func(*queueing.Model) (*core.Solver, error)
		bound        func(rows int) int64
	}{{
		name: "exact", model: threeTier, maxN: 100_000, stride: 100,
		solver: core.NewExactMVASolver,
		bound:  func(int) int64 { return 4 << 20 },
	}, {
		name: "multiserver", model: vins, maxN: 10_000, stride: 50,
		solver: func(m *queueing.Model) (*core.Solver, error) {
			return core.NewMultiServerSolver(m, core.MultiServerOptions{TraceStation: -1})
		},
		// Per stored row: the N, X, R and Cycle scalars, the QueueLen,
		// Util and Residence rows and Util's row header; the demands are
		// one shared row. Plus 32 KiB of slack.
		bound: func(rows int) int64 {
			k := len(vins.Stations)
			return int64(rows*(8*(4+3*k)+24)) + 32<<10
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.solver(tc.model)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Release()
			if err := s.Decimate(tc.stride); err != nil {
				t.Fatal(err)
			}
			// Two collections: the second frees what sync.Pool victim
			// caches held, so the run is not credited with freeing them.
			runtime.GC()
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := s.Run(tc.maxN); err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			res := s.Result()
			rows := res.Len()
			if res.SolvedN() != tc.maxN || rows != tc.maxN/tc.stride {
				t.Fatalf("SolvedN=%d Len=%d, want %d/%d", res.SolvedN(), rows, tc.maxN, tc.maxN/tc.stride)
			}
			bound := tc.bound(rows)
			if retained := int64(after.HeapAlloc) - int64(before.HeapAlloc); retained > bound {
				t.Fatalf("deep solve retained %d bytes in %d rows, bound is %d", retained, rows, bound)
			}
			runtime.KeepAlive(res)
		})
	}
}

// TestRetainedBytesPerRow pins what a dense trajectory retains per stored
// row. Every row holds its N, X, R and Cycle scalars, its QueueLen, Util
// and Residence rows and Util's row header; only a trajectory whose demands
// vary by population (MVASD) also stores a demand row, while a
// constant-demand one shares a single demand row among all its rows. The
// slack covers the Result's fixed part, the page rounding of each large
// buffer and the solver scratch the pools keep, under a twentieth of what
// one more k-wide column would add.
func TestRetainedBytesPerRow(t *testing.T) {
	m := testbed.VINS().Model(1)
	k := len(m.Stations)
	const maxN = 20_000
	dm := core.FuncDemands{K: k, F: func(station, n int) float64 {
		return m.Stations[station].Demand() * (1 - 0.1*float64(n%97)/97)
	}}
	for _, tc := range []struct {
		name    string
		solve   func() (*core.Result, error)
		perRow  int
		varying bool
	}{{
		name: "exact",
		solve: func() (*core.Result, error) {
			return core.ExactMVA(m, maxN)
		},
		perRow: 8*(4+3*k) + 24,
	}, {
		name: "multiserver",
		solve: func() (*core.Result, error) {
			res, _, err := core.ExactMVAMultiServer(m, maxN, core.MultiServerOptions{TraceStation: -1})
			return res, err
		},
		perRow: 8*(4+3*k) + 24,
	}, {
		name: "mvasd",
		solve: func() (*core.Result, error) {
			return core.MVASD(m, maxN, dm, core.MVASDOptions{MultiServerOptions: core.MultiServerOptions{TraceStation: -1}})
		},
		perRow:  8*(4+4*k) + 24,
		varying: true,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			// Two collections before each reading: the second frees what
			// sync.Pool victim caches held.
			runtime.GC()
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := tc.solve()
			if err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&after)
			if res.Len() != maxN {
				t.Fatalf("Len=%d, want %d", res.Len(), maxN)
			}
			const slack = 64 << 10
			bound := int64(maxN*tc.perRow) + slack
			if retained := int64(after.HeapAlloc) - int64(before.HeapAlloc); retained > bound {
				t.Fatalf("%d rows retained %d bytes (%.1f a row), bound is %d (%d a row plus %d)",
					maxN, retained, float64(retained)/maxN, bound, tc.perRow, slack)
			}
			a, b := res.DemandsRow(10), res.DemandsRow(maxN-1)
			if shared := &a[0] == &b[0]; shared == tc.varying {
				t.Fatalf("rows 10 and %d share demand backing: %v", maxN-1, shared)
			}
			if tc.varying && a[0] == b[0] {
				t.Fatal("varying-demand rows 10 and the last hold the same demand")
			}
			runtime.KeepAlive(res)
		})
	}
}
