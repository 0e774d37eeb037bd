package modelio

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/queueing"
)

// reset empties the memo, so the next decode of any span misses.
func (m *spanMemo[T]) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.slots, m.ring, m.next = nil, [memoEntries]memoEntry[T]{}, 0
}

func resetMemos() {
	modelMemo.reset()
	samplesMemo.reset()
}

// checkMemo asserts the memo's map and ring describe the same entries: every
// filled slot is listed exactly once, under its own selector, and the map
// lists nothing else. It returns the number of filled slots.
func checkMemo[T any](t *testing.T, m *spanMemo[T]) int {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	listed := map[uint8]int{}
	for sel, slots := range m.slots {
		if len(*slots) == 0 {
			t.Fatalf("selector %q has no slots left but stays in the map", sel)
		}
		for _, i := range *slots {
			span := m.ring[i].span
			if len(span) < memoSelector || string(span[:memoSelector]) != sel {
				t.Fatalf("slot %d (%q) listed under selector %q", i, span, sel)
			}
			listed[i]++
		}
	}
	filled := 0
	for i, e := range m.ring {
		if len(e.span) == 0 {
			if e.v != nil || listed[uint8(i)] != 0 {
				t.Fatalf("empty slot %d holds a value or is listed", i)
			}
			continue
		}
		filled++
		if listed[uint8(i)] != 1 || e.v == nil {
			t.Fatalf("slot %d listed %d times (value %v)", i, listed[uint8(i)], e.v != nil)
		}
	}
	return filled
}

// memoModelBody is a solve body whose model (well over the 64-byte
// selector) carries the given name and service time.
func memoModelBody(name, serviceTime string, maxN int) []byte {
	return []byte(fmt.Sprintf(`{"model":{"name":%q,"thinkTime":1,"stations":[{"name":"q","kind":"cpu","servers":2,"visits":1,"serviceTime":%s}]},"maxN":%d}`,
		name, serviceTime, maxN))
}

func decodeOK(t *testing.T, body []byte) *SolveRequest {
	t.Helper()
	var r SolveRequest
	if err := DecodeSolveRequest(body, &r); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	return &r
}

// TestMemoHitSharesValue: a repeated model or samples span decodes to the
// stored pointer whatever surrounds it, and a one-digit change inside one of
// its floats misses and decodes the changed value.
func TestMemoHitSharesValue(t *testing.T) {
	resetMemos()
	body := solveBody(t, "vins", AlgoMVASD)
	first := decodeOK(t, body)
	again := decodeOK(t, bytes.Replace(body, []byte(`"maxN":200`), []byte(` "every" : 3 , "maxN":7`), 1))
	if again.Model != first.Model || again.Samples != first.Samples {
		t.Fatal("a repeated body decoded to new values, not the memoized ones")
	}
	if again.MaxN != 7 || again.Every != 3 {
		t.Fatalf("fields around the memoized spans decoded to maxN %d, every %d", again.MaxN, again.Every)
	}

	// One digit inside a float of each span: "serviceTime":0.006 and the
	// first demand's leading significant digit.
	edits := []struct{ old, new string }{
		{`"serviceTime":0.006}`, `"serviceTime":0.007}`},
		{`"demands":[0.005`, `"demands":[0.006`},
	}
	for k, e := range edits {
		if bytes.Count(body, []byte(e.old)) != 1 {
			t.Fatalf("body does not hold %s exactly once", e.old)
		}
		changed := decodeOK(t, bytes.Replace(body, []byte(e.old), []byte(e.new), 1))
		checkDecodeParity(t, bytes.Replace(body, []byte(e.old), []byte(e.new), 1))
		if sameModel, sameSamples := changed.Model == first.Model, changed.Samples == first.Samples; sameModel != (k == 1) || sameSamples != (k == 0) {
			t.Fatalf("edit %s: model shared %v, samples shared %v", e.new, sameModel, sameSamples)
		}
	}
	if got := decodeOK(t, bytes.Replace(body, []byte(edits[0].old), []byte(edits[0].new), 1)).Model.Stations[0].ServiceTime; got != 0.007 {
		t.Fatalf("edited service time decoded to %v", got)
	}
	if decodeOK(t, body).Model != first.Model {
		t.Fatal("the original model was evicted by two stores")
	}
}

// TestMemoSpanBounds: spans longer than memoMaxSpan or shorter than the
// selector are parsed on every decode and never stored.
func TestMemoSpanBounds(t *testing.T) {
	resetMemos()
	var st strings.Builder
	for st.Len() <= memoMaxSpan {
		if st.Len() > 0 {
			st.WriteByte(',')
		}
		fmt.Fprintf(&st, `{"name":"s%d","kind":"cpu","servers":1,"visits":1,"serviceTime":0.001}`, st.Len())
	}
	long := []byte(`{"model":{"name":"big","thinkTime":1,"stations":[` + st.String() + `]},"maxN":5}`)
	short := []byte(`{"model":{"name":"x","stations":[]},"maxN":5}`)
	for _, body := range [][]byte{long, short} {
		a, b := decodeOK(t, body), decodeOK(t, body)
		if a.Model == b.Model {
			t.Fatalf("a %d-byte body's model was memoized", len(body))
		}
		checkDecodeParity(t, body)
	}
	if n := checkMemo(t, &modelMemo); n != 0 {
		t.Fatalf("%d spans stored", n)
	}
}

// TestMemoEviction: past memoEntries spans the oldest are evicted round
// robin, and the map and the ring stay consistent, also while many spans
// share one selector.
func TestMemoEviction(t *testing.T) {
	resetMemos()
	var models []*queueing.Model
	var bodies [][]byte
	for i := 0; i < 3*memoEntries; i++ {
		// Two names: half the spans share a selector with each other,
		// the other half each have their own.
		name := "shared-selector-model-name-long-enough-to-fill-the-selector"
		if i%2 == 1 {
			name = fmt.Sprintf("m%d", i)
		}
		body := memoModelBody(name, fmt.Sprintf("0.%03d", i+1), 5)
		bodies = append(bodies, body)
		models = append(models, decodeOK(t, body).Model)
		if n := checkMemo(t, &modelMemo); n != min(i+1, memoEntries) {
			t.Fatalf("after %d stores the memo holds %d", i+1, n)
		}
	}
	// The last memoEntries spans hit, and a hit stores nothing; then each
	// older span misses (and is stored again).
	for k := range bodies {
		i := (k + len(bodies) - memoEntries) % len(bodies)
		got := decodeOK(t, bodies[i]).Model
		if hit := got == models[i]; hit != (k < memoEntries) {
			t.Fatalf("span %d of %d: hit %v", i, len(bodies), hit)
		}
		checkMemo(t, &modelMemo)
	}
}

// TestMemoConcurrentDecodes decodes more distinct bodies than the memo holds
// from several goroutines at once, so hits, misses, duplicate stores and
// evictions interleave (run it under -race).
func TestMemoConcurrentDecodes(t *testing.T) {
	resetMemos()
	var bodies [][]byte
	var times []float64
	for i := 0; i < memoEntries+memoEntries/2; i++ {
		bodies = append(bodies, memoModelBody(fmt.Sprintf("concurrent-%d", i%8), fmt.Sprintf("0.%03d", i+1), 5))
		times = append(times, float64(i+1)/1000)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 400; k++ {
				i := (k*7 + g*13) % len(bodies)
				var r SolveRequest
				if err := DecodeSolveRequest(bodies[i], &r); err != nil {
					t.Error(err)
					return
				}
				if got := r.Model.Stations[0].ServiceTime; got != times[i] {
					t.Errorf("%s decoded service time %v", bodies[i], got)
					return
				}
			}
		}()
	}
	wg.Wait()
	checkMemo(t, &modelMemo)
}
