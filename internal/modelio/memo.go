package modelio

// This file memoizes the fast decoder's two large values. Capacity planning
// re-solves one measured model at many populations, so the same "model" and
// "samples" text reaches /v1/solve over and over while only maxN and every
// change. The fast decoder parses a JSON object deterministically and from
// its own bytes alone: identical span bytes always decode to an identical
// value. So the first decode of a span stores its value under the span, and
// a later body whose bytes at that value start with the same span reuses it
// without parsing a float.

import (
	"bytes"
	"sync"

	"repro/internal/queueing"
)

const (
	// memoEntries bounds each memo; the oldest entry is evicted round robin.
	memoEntries = 64
	// memoSelector is how many leading bytes of a span select its
	// candidates. Spans shorter than this are parsed but never stored: the
	// selector would reach past their end, and they parse quickly anyway.
	memoSelector = 64
	// memoMaxSpan caps a stored span; longer ones are parsed but never
	// stored, so a memo holds at most memoEntries × 64 KiB of text.
	memoMaxSpan = 64 << 10
)

// The memos of the two values the fast decoder looks up. They are
// process-wide, like keyBufs, because they change what a decode costs and
// never what it returns. A value they hand out is shared by every request
// whose body carried the same span, so it is read-only: nothing may write to
// a decoded request's Model or Samples.
var (
	modelMemo   spanMemo[queueing.Model]
	samplesMemo spanMemo[SamplesFile]
)

// spanMemo maps the exact bytes of a JSON value to the value decoded from
// them. Entries are keyed and confirmed by the full span, never by a hash:
// the selector (the span's first memoSelector bytes) only narrows the
// candidates, and a candidate matches when the input starts with its whole
// span. Since a JSON object ends at its own closing brace, a stored span can
// only be a prefix of the input when the object there is exactly that span.
type spanMemo[T any] struct {
	mu    sync.Mutex
	slots map[string]*[]uint8 // selector → ring slots holding spans with that selector
	ring  [memoEntries]memoEntry[T]
	next  int // the ring slot the next store fills
}

// memoEntry is one ring slot. A slot keeps its span buffer when it is
// refilled, so a memo that has filled its ring stores a span with a copy
// and no allocation.
type memoEntry[T any] struct {
	span []byte // empty for a slot never filled
	v    *T
}

// lookup returns the value stored for the span b starts with and the span's
// length, or nil when there is none. It compares each candidate once and
// never scans b for the value's end.
func (m *spanMemo[T]) lookup(b []byte) (*T, int) {
	if len(b) < memoSelector {
		return nil, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c := m.slots[string(b[:memoSelector])]; c != nil {
		for _, i := range *c {
			if e := &m.ring[i]; len(e.span) <= len(b) && bytes.Equal(b[:len(e.span)], e.span) {
				return e.v, len(e.span)
			}
		}
	}
	return nil, 0
}

// store records v as the value span decodes to, evicting the ring's oldest
// entry when the memo is full; spans outside the stored size range are left
// alone. Two decodes that miss the same span at once both store it, which
// costs a slot but no correctness: the two values are equal.
func (m *spanMemo[T]) store(span []byte, v *T) {
	if len(span) < memoSelector || len(span) > memoMaxSpan {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.slots == nil {
		m.slots = make(map[string]*[]uint8, memoEntries)
	}
	i := m.next
	m.next = (i + 1) % memoEntries
	e := &m.ring[i]
	if len(e.span) > 0 {
		m.unlink(e.span[:memoSelector], uint8(i))
	}
	e.span, e.v = append(e.span[:0], span...), v
	c := m.slots[string(span[:memoSelector])]
	if c == nil {
		c = new([]uint8)
		m.slots[string(span[:memoSelector])] = c
	}
	*c = append(*c, uint8(i))
}

// unlink drops slot i from sel's candidates.
func (m *spanMemo[T]) unlink(sel []byte, i uint8) {
	c := m.slots[string(sel)]
	for j, s := range *c {
		if s == i {
			*c = append((*c)[:j], (*c)[j+1:]...)
			break
		}
	}
	if len(*c) == 0 {
		delete(m.slots, string(sel))
	}
}

// memoized decodes the object value at d's position into *dst through m:
// a stored span is reused and skipped, anything else is parsed by parse
// into a fresh value, which is then stored under its span.
func memoized[T any](d *fastDecoder, m *spanMemo[T], dst **T, parse func(*T) bool) bool {
	d.space()
	if v, n := m.lookup(d.b[d.i:]); v != nil {
		*dst = v
		d.i += n
		return true
	}
	start, v := d.i, new(T)
	if !parse(v) {
		return false
	}
	*dst = v
	m.store(d.b[start:d.i], v)
	return true
}
