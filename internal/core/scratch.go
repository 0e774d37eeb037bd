package core

import "sync"

// vecPool recycles the float64 scratch vectors that back solver recursion
// state (queue lengths, demand rows, marginal-probability rows). Solvers are
// created per request in the service; pooling keeps a steady-state workload
// from allocating fresh state on every solve. Vectors are boxed as *[]float64
// so Put does not allocate an interface header per call.
//
// memoPool keeps the multi-server closed-form memo backings apart: they are
// an order of magnitude longer than the recursion vectors, so drawing them
// from vecPool would mostly miss and drop a pooled vector each time.
var vecPool, memoPool sync.Pool

// getVec returns a zeroed scratch vector of length n, reusing pooled
// capacity when possible.
func getVec(n int) []float64 { return getFrom(&vecPool, n) }

// putVec returns a vector obtained from getVec to the pool. The caller must
// not use v afterwards.
func putVec(v []float64) { putTo(&vecPool, v) }

// getVecPair returns two zeroed length-n vectors that share one pooled
// backing; putVec(a) returns both.
func getVecPair(n int) (a, b []float64) {
	v := getVec(2 * n)
	return v[:n], v[n:]
}

// getMemoVec and putMemoVec are getVec and putVec for memo backings.
func getMemoVec(n int) []float64 { return getFrom(&memoPool, n) }
func putMemoVec(v []float64)     { putTo(&memoPool, v) }

func getFrom(pool *sync.Pool, n int) []float64 {
	if p, ok := pool.Get().(*[]float64); ok && cap(*p) >= n {
		v := (*p)[:n]
		clear(v)
		return v
	}
	return make([]float64, n)
}

func putTo(pool *sync.Pool, v []float64) {
	if cap(v) == 0 {
		return
	}
	v = v[:0]
	pool.Put(&v)
}
