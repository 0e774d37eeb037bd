package core_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/testbed"
)

// TestDeepSolveBoundedMemoryMultiServer is the multi-server sibling of
// TestDeepSolveBoundedMemory: a decimated Algorithm-2 solve of the VINS
// testbed model (three 16-core CPUs among twelve stations) to N=10⁴ must
// retain no more than its stored row matrices plus a constant. The state at
// a stored row is rebuilt from the row, so any per-row state stored beside
// it — a checkpoint copy is ~900 B a row, more than the row — breaks the
// bound.
func TestDeepSolveBoundedMemoryMultiServer(t *testing.T) {
	const maxN, stride = 10_000, 50
	m := testbed.VINS().Model(1)
	s, err := core.NewMultiServerSolver(m, core.MultiServerOptions{TraceStation: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	if err := s.Decimate(stride); err != nil {
		t.Fatal(err)
	}
	// Two collections: the second frees what sync.Pool victim caches held.
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.Run(maxN); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	res := s.Result()
	rows := res.Len()
	if res.SolvedN() != maxN || rows != maxN/stride {
		t.Fatalf("SolvedN=%d Len=%d, want %d/%d", res.SolvedN(), rows, maxN, maxN/stride)
	}
	// Per stored row: the N, X, R and Cycle scalars, and the QueueLen, Util,
	// Residence and Demands rows with their slice headers.
	k := len(m.Stations)
	matrices := int64(rows * (8*(4+4*k) + 4*24))
	const slack = 32 << 10
	if retained := int64(after.HeapAlloc) - int64(before.HeapAlloc); retained > matrices+slack {
		t.Fatalf("deep solve retained %d bytes; its %d rows' matrices take %d, bound is %d",
			retained, rows, matrices, matrices+slack)
	}
	runtime.KeepAlive(res)
}
