// Package tracering mirrors internal/obs.SpanTracer: a bounded multi-
// producer ring buffer whose every field is atomic. It proves the span
// ring's shape is correctly exempt from guarded_by checking — atomics
// need no guard annotations, so the ring produces no diagnostics —
// while the mutexRing contrast below shows the analyzer is genuinely
// looking at this package.
package tracering

import (
	"sync"
	"sync/atomic"
)

// slot is one ring entry; the claim/done generation stamps bracket the
// payload stores exactly as internal/obs.spanSlot does.
type slot struct {
	claim atomic.Uint64
	kind  atomic.Uint64
	a     atomic.Uint64
	done  atomic.Uint64
}

// Ring is the atomic-only tracer shape: no mutex, no guarded_by, and
// therefore nothing for lockcheck to report.
type Ring struct {
	mask  uint64
	head  atomic.Uint64
	slots []slot
}

// Record claims a ticket and publishes the payload between the two
// generation stamps. All stores are atomic: clean.
func (r *Ring) Record(kind, a uint64) {
	ticket := r.head.Add(1) - 1
	s := &r.slots[ticket&r.mask]
	s.claim.Store(ticket + 1)
	s.kind.Store(kind)
	s.a.Store(a)
	s.done.Store(ticket + 1)
}

// Dump reads slots with the double stamp re-check: also lock-free and
// clean.
func (r *Ring) Dump() []uint64 {
	var out []uint64
	for i := range r.slots {
		s := &r.slots[i]
		done := s.done.Load()
		if done == 0 {
			continue
		}
		v := s.a.Load()
		if s.claim.Load() != done || s.done.Load() != done {
			continue
		}
		out = append(out, v)
	}
	return out
}

// mutexRing is the contrast case: the same ring guarded by a mutex with
// an annotated buffer. An unguarded access must be reported, proving
// the analyzer processed this package (so the Ring silence above is a
// real pass, not a skip).
type mutexRing struct {
	mu sync.Mutex
	// evs is the event buffer. guarded_by:mu
	evs []uint64
}

func (r *mutexRing) record(v uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evs = append(r.evs, v)
}

func (r *mutexRing) badLen() int {
	return len(r.evs) // want `access to mutexRing\.evs \(guarded_by:mu\) without holding r\.mu`
}
