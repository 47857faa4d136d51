package lockmgr

import "errors"

// Deadlock detection. The timeout in Lock is a complete (if slow)
// resolution mechanism; the detector below catches most deadlocks
// instantly, at the moment the closing edge of a waits-for cycle would be
// created. When a lock request must wait, the manager records a
// waits-for edge (requester → key, with the queued waiter) and walks the graph: requester waits
// for the holders of its key, each of which may itself be waiting for the
// holders of another key, and so on. If the walk returns to the
// requester, granting the wait can never make progress and the request
// fails with ErrDeadlockDetected — the engine aborts that transaction,
// releasing its locks.
//
// The walk takes the detector's registry mutex plus shard mutexes one at
// a time, never holding two shards at once, so it cannot itself deadlock
// with the lock paths. Races with concurrent grants can only produce
// stale edges, which err on the side of reporting a deadlock — a safe
// outcome, since the victim simply retries.

// ErrDeadlockDetected reports that a lock request would close a waits-for
// cycle. The requester must abort (its locks are part of the cycle).
var ErrDeadlockDetected = errors.New("lockmgr: deadlock detected (waits-for cycle)")

// waitEdge is one owner's waits-for edge: the key it waits for and the
// queued waiter of that wait. An owner can be granted, release and queue
// again between the detector's snapshot and its walk, so only an edge
// whose very waiter is still queued describes a live wait.
type waitEdge struct {
	key uint64
	w   *waiter
}

// noteWaiting registers that owner's waiter w is about to wait for key,
// then checks for a waits-for cycle through owner. It returns
// ErrDeadlockDetected if granting could never happen; the caller must
// then not enqueue. On nil, the caller enqueues and must call
// clearWaiting when the wait ends.
//
// lockorder:acquires Manager.waitMu
// lockorder:releases Manager.waitMu
func (m *Manager) noteWaiting(owner, key uint64, w *waiter) error {
	m.waitMu.Lock()
	m.waitingFor[owner] = waitEdge{key: key, w: w}
	m.waitMu.Unlock()

	if m.cycleFrom(owner) {
		m.clearWaiting(owner, w)
		m.deadlocks.Add(1)
		return ErrDeadlockDetected
	}
	return nil
}

// clearWaiting removes owner's waits-for edge if it still belongs to
// waiter w.
//
// lockorder:acquires Manager.waitMu
// lockorder:releases Manager.waitMu
func (m *Manager) clearWaiting(owner uint64, w *waiter) {
	m.waitMu.Lock()
	if m.waitingFor[owner].w == w {
		delete(m.waitingFor, owner)
	}
	m.waitMu.Unlock()
}

// blockersOf returns the owners that currently prevent the wait of edge
// from being granted: incompatible holders, plus incompatible queued
// waiters ahead of it (FIFO order means they block too).
//
// alloc:allowed(deadlock detection runs only when a lock wait begins — already off the uncontended fast path)
func (m *Manager) blockersOf(owner uint64, edge waitEdge) []uint64 {
	sh := m.shardOf(edge.key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ls := sh.locks[edge.key]
	if ls == nil {
		return nil
	}
	pos := -1
	for i, q := range ls.queue {
		if q == edge.w {
			pos = i
			break
		}
	}
	if pos < 0 {
		// The waiter is no longer queued (granted or timed out between
		// the waits-for snapshot and this read): the edge is stale, so it
		// blocks on nothing — even if owner has since queued again.
		return nil
	}
	mode := edge.w.mode
	var out []uint64
	for h, hm := range ls.holders {
		if h != owner && !compatible[hm][mode] {
			out = append(out, h)
		}
	}
	for _, q := range ls.queue[:pos] {
		if !compatible[q.mode][mode] {
			out = append(out, q.owner)
		}
	}
	return out
}

// cycleFrom reports whether the waits-for graph contains a cycle through
// start.
//
// alloc:allowed(deadlock detection runs only when a lock wait begins — already off the uncontended fast path)
func (m *Manager) cycleFrom(start uint64) bool {
	// Snapshot the wait edges once; holder sets are read per key during
	// the walk.
	m.waitMu.Lock()
	waits := make(map[uint64]waitEdge, len(m.waitingFor))
	for o, edge := range m.waitingFor {
		waits[o] = edge
	}
	m.waitMu.Unlock()

	visited := make(map[uint64]bool)
	var walk func(owner uint64) bool
	walk = func(owner uint64) bool {
		edge, waiting := waits[owner]
		if !waiting {
			return false
		}
		for _, blocker := range m.blockersOf(owner, edge) {
			if blocker == start {
				return true
			}
			if visited[blocker] {
				continue
			}
			visited[blocker] = true
			if walk(blocker) {
				return true
			}
		}
		return false
	}
	return walk(start)
}
