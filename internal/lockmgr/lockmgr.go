// Package lockmgr implements the lock manager used for synchronization
// between transactions and the checkpointer (Section 2.1 of Salem &
// Garcia-Molina charges C_lock per lock or unlock operation; Section 3.2
// describes the locking the consistent checkpoint algorithms require).
//
// The manager supports multi-granularity modes: transactions take
// shared/exclusive locks on records and intention locks (IS/IX) on the
// records' segments, while a two-color checkpointer takes a shared lock on
// a whole segment, which conflicts with in-flight writers of that segment
// exactly as Pu's algorithm requires. Waits are FIFO with a timeout, which
// doubles as the deadlock resolution mechanism.
package lockmgr

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mmdb/internal/obs"
)

// Mode is a lock mode.
type Mode uint8

// Lock modes, in the usual multi-granularity hierarchy.
const (
	// IS is intention-shared: the holder reads finer-grained items below.
	IS Mode = iota
	// IX is intention-exclusive: the holder writes finer items below.
	IX
	// S is shared.
	S
	// X is exclusive.
	X
	numModes
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case IS:
		return "IS"
	case IX:
		return "IX"
	case S:
		return "S"
	case X:
		return "X"
	default:
		return fmt.Sprintf("lockmgr.Mode(%d)", uint8(m))
	}
}

// compatible[a][b] reports whether modes a and b may be held concurrently
// by different transactions.
var compatible = [numModes][numModes]bool{
	IS: {IS: true, IX: true, S: true, X: false},
	IX: {IS: true, IX: true, S: false, X: false},
	S:  {IS: true, IX: false, S: true, X: false},
	X:  {IS: false, IX: false, S: false, X: false},
}

// covers reports whether holding mode a subsumes a request for mode b.
func covers(a, b Mode) bool {
	if a == b || a == X {
		return true
	}
	switch a {
	case S:
		return b == IS
	case IX:
		return b == IS
	}
	return false
}

// sup returns the least mode covering both a and b (S+IX escalates to X;
// there is no SIX mode in this manager).
func sup(a, b Mode) Mode {
	if covers(a, b) {
		return a
	}
	if covers(b, a) {
		return b
	}
	return X
}

// ErrTimeout reports that a lock wait exceeded its deadline. The engine
// treats it as a deadlock victim signal and aborts the transaction.
var ErrTimeout = errors.New("lockmgr: lock wait timed out (possible deadlock)")

// ErrShutdown reports that the manager was shut down while waiting.
var ErrShutdown = errors.New("lockmgr: manager shut down")

type waiter struct {
	owner   uint64
	mode    Mode
	upgrade bool
	ready   chan error // buffered(1): receives nil on grant
}

type lockState struct {
	holders map[uint64]Mode
	queue   []*waiter
}

// empty reports whether the lock state can be garbage collected.
func (ls *lockState) empty() bool { return len(ls.holders) == 0 && len(ls.queue) == 0 }

// compatibleWithHolders reports whether owner may acquire mode given the
// current holders (ignoring owner's own holding).
func (ls *lockState) compatibleWithHolders(owner uint64, mode Mode) bool {
	for h, hm := range ls.holders {
		if h == owner {
			continue
		}
		if !compatible[hm][mode] {
			return false
		}
	}
	return true
}

const numShards = 64

// freelistSize bounds the per-shard recycling stacks below. Sixteen
// lock states and holdings maps per shard covers the steady-state churn
// of record locks (acquire on access, release at commit) without
// pinning unbounded memory after a burst.
const freelistSize = 16

type shard struct {
	mu sync.Mutex // lockorder:level=60
	// locks is the lock table of this shard. guarded_by:mu
	locks map[uint64]*lockState
	// holdings maps owner -> key -> mode. guarded_by:mu
	holdings map[uint64]map[uint64]Mode
	// lsFree recycles lockState objects: the acquire/release cycle of an
	// uncontended record lock creates and destroys one per transaction,
	// and without recycling that is two heap allocations per lock.
	// guarded_by:mu
	lsFree [freelistSize]*lockState
	// lsFreeN is the number of live entries in lsFree. guarded_by:mu
	lsFreeN int
	// hkFree recycles per-owner holdings maps, emptied. guarded_by:mu
	hkFree [freelistSize]map[uint64]Mode
	// hkFreeN is the number of live entries in hkFree. guarded_by:mu
	hkFreeN int
	// shutdown fails new requests once set. guarded_by:mu
	shutdown bool
}

// getLockState returns a recycled or fresh lockState.
// lockcheck:held sh.mu
func (sh *shard) getLockState() *lockState {
	if sh.lsFreeN > 0 {
		sh.lsFreeN--
		ls := sh.lsFree[sh.lsFreeN]
		sh.lsFree[sh.lsFreeN] = nil
		return ls
	}
	return &lockState{holders: make(map[uint64]Mode, 2)} // alloc:allowed(freelist miss: the state is recycled once the lock empties)
}

// putLockState parks an empty lockState for reuse. The holders map is
// already empty (ls.empty() gates every call); the queue keeps its
// capacity for the next contention burst.
// lockcheck:held sh.mu
func (sh *shard) putLockState(ls *lockState) {
	if sh.lsFreeN == len(sh.lsFree) {
		return
	}
	ls.queue = ls.queue[:0]
	sh.lsFree[sh.lsFreeN] = ls
	sh.lsFreeN++
}

// getHoldings returns a recycled or fresh empty holdings map.
// lockcheck:held sh.mu
func (sh *shard) getHoldings() map[uint64]Mode {
	if sh.hkFreeN > 0 {
		sh.hkFreeN--
		hk := sh.hkFree[sh.hkFreeN]
		sh.hkFree[sh.hkFreeN] = nil
		return hk
	}
	return make(map[uint64]Mode, 4) // alloc:allowed(freelist miss: the map is recycled when the owner's last lock is released)
}

// putHoldings parks an emptied holdings map for reuse.
// lockcheck:held sh.mu
func (sh *shard) putHoldings(hk map[uint64]Mode) {
	if sh.hkFreeN == len(sh.hkFree) {
		return
	}
	clear(hk)
	sh.hkFree[sh.hkFreeN] = hk
	sh.hkFreeN++
}

// Manager is a sharded lock table.
//
// For the static lock-order analysis the whole logical lock table is one
// class, ordered after the engine's checkpoint/transaction mutexes and
// before the latches and log mutex the checkpointer touches while
// holding a segment's S lock:
//
// lockorder:declare Manager.table level=30
type Manager struct {
	shards [numShards]shard

	// Counters for the paper's C_lock accounting.
	acquires  atomic.Uint64
	releases  atomic.Uint64
	waits     atomic.Uint64
	timeouts  atomic.Uint64
	deadlocks atomic.Uint64

	waitMu sync.Mutex // lockorder:level=70
	// waitingFor is the waits-for registry for deadlock detection,
	// mapping owner → the key and waiter of its wait. guarded_by:waitMu
	waitingFor map[uint64]waitEdge

	// waitH, when set, records wait time (enqueue to grant, timeout, or
	// deadlock refusal). txnWaitH, when set, additionally records waits
	// by non-zero owners (transactions, not the checkpointer) — the
	// lock-wait share of commit-latency attribution. Both reuse the same
	// clock reads on the contended path only; the uncontended grant path
	// never reads the clock. Set once via SetMetrics before the manager
	// is shared.
	waitH    *obs.Histogram
	txnWaitH *obs.Histogram
}

// SetMetrics installs the lock-wait latency histograms. txnWaitSeconds
// (which may be nil) receives only waits by non-zero owners, i.e.
// transactions rather than the checkpointer. Call it after New and
// before the manager is shared across goroutines.
func (m *Manager) SetMetrics(waitSeconds, txnWaitSeconds *obs.Histogram) {
	m.waitH = waitSeconds
	m.txnWaitH = txnWaitSeconds
}

// New returns an empty lock manager.
func New() *Manager {
	m := &Manager{waitingFor: make(map[uint64]waitEdge)}
	for i := range m.shards {
		m.shards[i].locks = make(map[uint64]*lockState)         //nolint:lockcheck // not shared until New returns
		m.shards[i].holdings = make(map[uint64]map[uint64]Mode) //nolint:lockcheck // not shared until New returns
	}
	return m
}

func (m *Manager) shardOf(key uint64) *shard {
	// Fibonacci hashing spreads sequential keys across shards.
	return &m.shards[(key*0x9E3779B97F4A7C15)>>(64-6)]
}

// Stats is a snapshot of manager activity.
type Stats struct {
	Acquires uint64
	Releases uint64
	Waits    uint64
	Timeouts uint64
	// Deadlocks counts requests refused by the waits-for cycle detector.
	Deadlocks uint64
}

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats {
	return Stats{Acquires: m.acquires.Load(), Releases: m.releases.Load(),
		Waits: m.waits.Load(), Timeouts: m.timeouts.Load(), Deadlocks: m.deadlocks.Load()}
}

// Lock acquires key in mode for owner, waiting up to timeout. A request
// already covered by the owner's current holding returns immediately; a
// stronger request upgrades (upgrades jump the queue, which keeps the
// common S→X record upgrade from deadlocking against queued requests).
// timeout <= 0 means wait forever.
//
// perf:hotpath(every record access acquires through here; C_lock in the paper's cost model)
//
// lockorder:acquires Manager.table
func (m *Manager) Lock(owner, key uint64, mode Mode, timeout time.Duration) error {
	sh := m.shardOf(key)
	sh.mu.Lock()
	if sh.shutdown {
		sh.mu.Unlock()
		return ErrShutdown
	}
	ls := sh.locks[key]
	if ls == nil {
		ls = sh.getLockState()
		sh.locks[key] = ls
	}

	held, isHolder := ls.holders[owner]
	if isHolder && covers(held, mode) {
		sh.mu.Unlock()
		return nil
	}
	want := mode
	if isHolder {
		want = sup(held, mode)
	}

	// Immediate grant: compatible with other holders, and either the queue
	// is empty or this is an upgrade (upgrades may bypass the queue; a
	// queued waiter is by definition not yet a holder, so the bypass
	// cannot violate compatibility once holders are checked).
	if ls.compatibleWithHolders(owner, want) && (len(ls.queue) == 0 || isHolder) {
		ls.holders[owner] = want
		m.recordHolding(sh, owner, key, want)
		sh.mu.Unlock()
		m.acquires.Add(1)
		return nil
	}

	// alloc:allowed(contended path: the waiter and its grant channel outlive this frame while the goroutine blocks)
	w := &waiter{owner: owner, mode: want, upgrade: isHolder, ready: make(chan error, 1)}
	if isHolder {
		// Upgrades go to the front of the queue.
		ls.queue = append([]*waiter{w}, ls.queue...) // alloc:allowed(contended path: upgrade prepend, rare)
	} else {
		ls.queue = append(ls.queue, w) // alloc:allowed(contended path: queue growth is amortized, capacity is recycled)
	}
	sh.mu.Unlock()
	m.waits.Add(1)
	if m.waitH != nil || m.txnWaitH != nil {
		defer m.observeWait(owner, time.Now())
	}

	// The wait is registered in the waits-for graph; if it closes a
	// cycle, fail now instead of stalling until the timeout.
	if derr := m.noteWaiting(owner, key, w); derr != nil {
		if m.dequeue(sh, key, ls, w) {
			return derr
		}
		// A racing grant beat the detector; take it.
		if err := <-w.ready; err != nil {
			return err
		}
		m.acquires.Add(1)
		return nil
	}
	defer m.clearWaiting(owner, w)

	var timer *time.Timer
	var timeoutC <-chan time.Time
	if timeout > 0 {
		timer = time.NewTimer(timeout)
		timeoutC = timer.C
		defer timer.Stop()
	}

	select {
	case err := <-w.ready:
		if err != nil {
			return err
		}
		m.acquires.Add(1)
		return nil
	case <-timeoutC:
		// Remove ourselves from the queue; a concurrent grant may have
		// raced with the timer, in which case the grant wins.
		if !m.dequeue(sh, key, ls, w) {
			if err := <-w.ready; err != nil {
				return err
			}
			m.acquires.Add(1)
			return nil
		}
		m.timeouts.Add(1)
		return ErrTimeout
	}
}

// observeWait records one contended wait's duration into the manager's
// histogram and, for transaction owners (non-zero), into the
// commit-attribution histogram. Deferred from the contended path only.
func (m *Manager) observeWait(owner uint64, began time.Time) {
	d := uint64(time.Since(began))
	m.waitH.Observe(d)
	if owner != 0 {
		m.txnWaitH.Observe(d)
	}
}

// dequeue removes waiter w from key's queue and re-runs grant processing
// (w's departure may unblock waiters behind it). It reports whether w was
// still queued; false means a grant raced and w.ready holds the outcome.
func (m *Manager) dequeue(sh *shard, key uint64, ls *lockState, w *waiter) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i, q := range ls.queue {
		if q == w {
			// Shift-down removal (not append(q[:i], q[i+1:]...)): removal
			// can never grow the slice, and spelling it with copy keeps
			// the commit-path release provably allocation-free.
			copy(ls.queue[i:], ls.queue[i+1:])
			ls.queue[len(ls.queue)-1] = nil
			ls.queue = ls.queue[:len(ls.queue)-1]
			m.grantLocked(sh, key, ls)
			if ls.empty() {
				delete(sh.locks, key)
				sh.putLockState(ls)
			}
			return true
		}
	}
	return false
}

// TryLock attempts a non-blocking acquisition and reports success. The
// two-color checkpointer uses it to "find a white segment that is not
// exclusively locked" before falling back to a blocking wait (Figure 3.1).
//
// perf:hotpath(checkpointer segment probe; must not allocate per probe)
//
// lockorder:acquires Manager.table
func (m *Manager) TryLock(owner, key uint64, mode Mode) bool {
	sh := m.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.shutdown {
		return false
	}
	ls := sh.locks[key]
	if ls == nil {
		ls = sh.getLockState()
		sh.locks[key] = ls
	}
	held, isHolder := ls.holders[owner]
	if isHolder && covers(held, mode) {
		return true
	}
	want := mode
	if isHolder {
		want = sup(held, mode)
	}
	if ls.compatibleWithHolders(owner, want) && (len(ls.queue) == 0 || isHolder) {
		ls.holders[owner] = want
		m.recordHolding(sh, owner, key, want)
		m.acquires.Add(1)
		return true
	}
	if ls.empty() {
		delete(sh.locks, key)
		sh.putLockState(ls)
	}
	return false
}

// recordHolding updates the owner->keys index. Caller holds sh.mu.
// lockcheck:held sh.mu
func (m *Manager) recordHolding(sh *shard, owner, key uint64, mode Mode) {
	hk := sh.holdings[owner]
	if hk == nil {
		hk = sh.getHoldings()
		sh.holdings[owner] = hk
	}
	hk[key] = mode
}

// grantLocked promotes queued waiters in FIFO order while they are
// compatible. Caller holds sh.mu.
// lockcheck:held sh.mu
func (m *Manager) grantLocked(sh *shard, key uint64, ls *lockState) {
	// ctxcheck:exempt(ready is buffered(1) and receives exactly one outcome per waiter, so the send never blocks)
	for len(ls.queue) > 0 {
		w := ls.queue[0]
		held, isHolder := ls.holders[w.owner]
		want := w.mode
		if isHolder {
			want = sup(held, w.mode)
		}
		if !ls.compatibleWithHolders(w.owner, want) {
			return
		}
		ls.holders[w.owner] = want
		m.recordHolding(sh, w.owner, key, want)
		ls.queue = ls.queue[1:]
		// Drop the owner's waits-for edge at grant time, not when its
		// goroutine wakes — a stale edge would read as a phantom cycle to
		// the deadlock detector. (waitMu nests strictly inside sh.mu here;
		// the detector never holds waitMu while taking a shard lock.)
		m.clearWaiting(w.owner, w)
		w.ready <- nil
	}
}

// Unlock releases owner's lock on key. Releasing a lock that is not held
// is a no-op (idempotent release simplifies abort paths).
//
// perf:hotpath(single-lock release; C_lock in the paper's cost model)
//
// lockorder:releases Manager.table
func (m *Manager) Unlock(owner, key uint64) {
	sh := m.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ls := sh.locks[key]
	if ls == nil {
		return
	}
	if _, ok := ls.holders[owner]; !ok {
		return
	}
	delete(ls.holders, owner)
	if hk := sh.holdings[owner]; hk != nil {
		delete(hk, key)
		if len(hk) == 0 {
			delete(sh.holdings, owner)
			sh.putHoldings(hk)
		}
	}
	m.releases.Add(1)
	m.grantLocked(sh, key, ls)
	if ls.empty() {
		delete(sh.locks, key)
		sh.putLockState(ls)
	}
}

// ReleaseAll releases every lock owner holds (commit/abort lock release
// under strict two-phase locking). It returns the number released.
//
// The walk deletes from the owner's holdings map while ranging over it,
// which Go's map iteration permits for the current key. grantLocked may
// run inside the loop, but it only ever touches the holdings maps of
// waiters being granted — and the releasing owner cannot be a queued
// waiter, since its (single) goroutine is executing here rather than
// blocked in Lock — so the ranged map is never mutated from the side.
//
// perf:hotpath(commit/abort lock release; must not allocate a key scratch list)
//
// lockorder:releases Manager.table
func (m *Manager) ReleaseAll(owner uint64) int {
	released := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		hk := sh.holdings[owner]
		for key := range hk {
			delete(hk, key)
			ls := sh.locks[key]
			if ls == nil {
				continue
			}
			delete(ls.holders, owner)
			released++
			m.grantLocked(sh, key, ls)
			if ls.empty() {
				delete(sh.locks, key)
				sh.putLockState(ls)
			}
		}
		if hk != nil {
			delete(sh.holdings, owner)
			sh.putHoldings(hk)
		}
		sh.mu.Unlock()
	}
	if released > 0 {
		m.releases.Add(uint64(released))
	}
	return released
}

// HeldMode returns the mode owner holds on key and whether it holds one.
func (m *Manager) HeldMode(owner, key uint64) (Mode, bool) {
	sh := m.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ls := sh.locks[key]
	if ls == nil {
		return 0, false
	}
	mode, ok := ls.holders[owner]
	return mode, ok
}

// Shutdown fails all current and future waiters with ErrShutdown.
func (m *Manager) Shutdown() {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		sh.shutdown = true
		for _, ls := range sh.locks {
			// ctxcheck:exempt(ready is buffered(1) and receives exactly one outcome per waiter, so the send never blocks)
			for _, w := range ls.queue {
				w.ready <- ErrShutdown
			}
			ls.queue = nil
		}
		sh.mu.Unlock()
	}
}
