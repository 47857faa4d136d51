// Package tracering mirrors internal/obs.SpanTracer for unlockcheck: the
// ring buffer is atomic-only, so there are no acquisitions to balance
// and the analyzer must stay silent on it. The mutexRing contrast
// leaks a lock on one path, proving the package is really analyzed.
package tracering

import (
	"sync"
	"sync/atomic"
)

type slot struct {
	claim atomic.Uint64
	a     atomic.Uint64
	done  atomic.Uint64
}

// Ring is the atomic-only tracer shape: no Lock/Unlock pairs exist, so
// unlockcheck has nothing to report.
type Ring struct {
	mask  uint64
	head  atomic.Uint64
	slots []slot
}

func (r *Ring) Record(a uint64) {
	ticket := r.head.Add(1) - 1
	s := &r.slots[ticket&r.mask]
	s.claim.Store(ticket + 1)
	s.a.Store(a)
	s.done.Store(ticket + 1)
}

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

// mutexRing is the contrast case: a guarded ring whose dump leaks the
// lock on the empty path.
type mutexRing struct {
	mu  sync.Mutex
	evs []uint64
}

func (r *mutexRing) record(v uint64) {
	r.mu.Lock()
	r.evs = append(r.evs, v)
	r.mu.Unlock()
}

func (r *mutexRing) badDump() []uint64 {
	r.mu.Lock() // want `lock r\.mu acquired here is not released on every path out of badDump`
	if len(r.evs) == 0 {
		return nil
	}
	out := append([]uint64(nil), r.evs...)
	r.mu.Unlock()
	return out
}
