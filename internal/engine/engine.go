// Package engine implements the paper's MMDBMS core: shadow-copy
// transactions with redo-only logging over a memory-resident segmented
// database, eight asynchronous checkpoint algorithms (the paper's six of
// Section 3 plus ZIGZAG and HOURGLASS), and crash recovery from the
// ping-pong backup plus the log (Section 3.3).
package engine

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mmdb/internal/backup"
	"mmdb/internal/lockmgr"
	"mmdb/internal/obs"
	"mmdb/internal/storage"
	"mmdb/internal/wal"
)

// Errors returned by engine operations.
var (
	// ErrCheckpointConflict aborts a transaction that touched both white
	// and black records while a two-color checkpoint was in progress. The
	// transaction must be restarted (Section 3.2.1).
	ErrCheckpointConflict = errors.New("engine: transaction touched both checkpoint colors; restart required")
	// ErrTxnDone reports use of a finished (committed or aborted)
	// transaction.
	ErrTxnDone = errors.New("engine: transaction already finished")
	// ErrStopped reports use of a closed or crashed engine.
	ErrStopped = errors.New("engine: engine is stopped")
	// ErrDeadlock aborts a transaction whose lock wait timed out.
	ErrDeadlock = errors.New("engine: lock wait timed out; transaction aborted")
	// ErrCommitInDoubt reports a synchronous commit whose commit record
	// was appended but whose durability could not be confirmed (the log
	// flush failed or the engine stopped mid-commit). The transaction is
	// installed in memory; after a crash, recovery may or may not replay
	// it depending on whether the commit record reached disk.
	ErrCommitInDoubt = errors.New("engine: commit durability unknown; transaction in doubt")
	// ErrExistingDatabase is returned by Open when the directory already
	// holds a recoverable database (use Recover).
	ErrExistingDatabase = errors.New("engine: directory contains a recoverable database; use Recover")
)

// logFileName is the log file inside Params.Dir.
const logFileName = "redo.log"

// ckptRun is the state of an in-progress checkpoint, published to
// transactions through an atomic pointer. Transactions consult it for the
// two-color rule and the copy-on-update trigger.
type ckptRun struct {
	id     uint64
	alg    Algorithm
	target int
	tau    uint64 // τ(CH): the checkpoint's begin timestamp (COU)
	// curSeg is the highest segment index the checkpointer has secured
	// (copied or flushed); updaters of segments at or below it need not
	// preserve old versions. -1 until the first segment is done.
	curSeg atomic.Int64
	// span is the checkpoint's root span. Checkpoints are rare, so they
	// are always traced regardless of the transaction sampling rate.
	span obs.SpanID
}

// Engine is a memory-resident database with asynchronous checkpointing.
type Engine struct {
	params Params
	store  *storage.Store
	log    *wal.Log
	locks  *lockmgr.Manager
	bstore backup.Store

	clock  atomic.Uint64 // logical timestamps (transactions, checkpoints)
	txnSeq atomic.Uint64
	// ckptSeq is the next checkpoint ID. guarded_by:ckptMu
	ckptSeq uint64

	// Transaction registry and quiesce gate.
	txnMu   sync.Mutex // lockorder:level=20
	txnCond *sync.Cond
	// activeTxns is the registry of in-flight transactions. guarded_by:txnMu
	activeTxns map[uint64]*Txn
	// gateClosed blocks Begin while a quiesce is in progress. guarded_by:txnMu
	gateClosed bool
	// spareTxn is a single recycled transaction for the closure-free
	// ExecWrite path: it, its write map, and its image buffers are reused
	// so a steady stream of single-record writes commits without
	// allocating. Only ExecWrite-internal transactions — never user-held
	// Txns — enter the slot. guarded_by:txnMu
	spareTxn *Txn

	// cur is the in-progress checkpoint, nil when idle.
	cur atomic.Pointer[ckptRun]
	// hg is the hourglass window buffer pool; nil unless
	// Params.Algorithm is Hourglass.
	hg *hgPool
	// sweeper holds the checkpoint sweep's reusable state; it is set in
	// newEngine and used only by the checkpoint holding ckptMu.
	sweeper *sweeper
	// ckptMu serializes checkpoints (and the backup metadata). It is the
	// outermost engine lock: every other lock nests inside it.
	ckptMu sync.Mutex // lockorder:level=10

	// Continuous checkpoint loop channels. guarded_by:ckptMu
	loopStop chan struct{}
	// guarded_by:ckptMu
	loopDone chan struct{}

	stopped atomic.Bool

	// opsMu guards the logical operation registry (built-ins plus
	// Params.Operations plus RegisterOperation).
	opsMu sync.RWMutex
	// guarded_by:opsMu
	ops map[OpCode]OpFunc

	ctr counters
	// eo is the observability surface (metrics registry, latency
	// histograms, span ring); always non-nil.
	eo *engineObs
}

// Open creates or opens the database described by p. A pre-existing
// database directory must be opened with Recover instead; Open fails if a
// complete checkpoint already exists, to prevent silently ignoring
// recoverable state.
func Open(p Params) (*Engine, error) {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	st, err := storage.New(p.Storage)
	if err != nil {
		return nil, err
	}
	bs, err := p.openBackupStore(st.NumSegments())
	if err != nil {
		return nil, err
	}
	if _, _, err := bs.Latest(); err == nil {
		return nil, errors.Join(ErrExistingDatabase, bs.Close())
	}
	if has, err := wal.HasRecords(filepath.Join(p.Dir, logFileName)); err != nil {
		return nil, errors.Join(err, bs.Close())
	} else if has {
		// A crash before the first checkpoint leaves durable log records
		// but no complete backup; that state is recoverable too.
		return nil, errors.Join(ErrExistingDatabase, bs.Close())
	}
	eo := newEngineObs(p.SpanSampleEvery)
	lg, err := wal.Open(filepath.Join(p.Dir, logFileName), wal.Options{
		StableTail:    p.StableTail,
		SyncOnFlush:   p.SyncOnFlush,
		FlushInterval: p.LogFlushInterval,
		FS:            p.FS,
		Metrics:       eo.walMetrics,
	})
	if err != nil {
		return nil, errors.Join(err, bs.Close())
	}
	e := newEngine(p, st, lg, bs, 1, 1, eo)
	e.start()
	return e, nil
}

// newEngine assembles an engine around already-initialized components.
// eo must be the engineObs whose wal.Metrics the log was opened with
// (nil builds a fresh, unconnected one — tests only).
func newEngine(p Params, st *storage.Store, lg *wal.Log, bs backup.Store, nextCkptID, clock0 uint64, eo *engineObs) *Engine {
	if eo == nil {
		eo = newEngineObs(p.SpanSampleEvery)
	}
	eo.watchdog.SetThresholds(p.SlowOpCommitThreshold, p.SlowOpCheckpointThreshold)
	locks := lockmgr.New()
	locks.SetMetrics(eo.lockWaitH, eo.attrLockWaitH)
	bs.SetMetrics(eo.backupSegH)
	e := &Engine{
		params:     p,
		store:      st,
		log:        lg,
		locks:      locks,
		bstore:     bs,
		ckptSeq:    nextCkptID,
		activeTxns: make(map[uint64]*Txn),
		ops:        builtinOps(),
		eo:         eo,
	}
	for code, fn := range p.Operations {
		// Params-supplied operations silently skip built-in collisions;
		// Validate rejected them already.
		e.ops[code] = fn //nolint:lockcheck // e is not shared until newEngine returns
	}
	switch p.Algorithm {
	case Zigzag:
		st.EnableShadow()
	case Hourglass:
		e.hg = newHGPool(p.HourglassWindow, p.Storage.SegmentBytes, st.NumSegments()) //nolint:lockcheck // e is not shared until newEngine returns
	}
	e.sweeper = newSweeper(e)
	e.clock.Store(clock0)
	e.txnCond = sync.NewCond(&e.txnMu)
	eo.bind(e)
	return e
}

// start launches background services (the continuous checkpoint loop, if
// configured).
func (e *Engine) start() {
	if e.params.AutoCheckpoint {
		e.StartCheckpointLoop()
	}
}

// Params returns the engine's configuration.
func (e *Engine) Params() Params { return e.params }

// NumSegments returns the database segment count.
func (e *Engine) NumSegments() int { return e.store.NumSegments() }

// NumRecords returns the database record count.
func (e *Engine) NumRecords() int { return e.store.Config().NumRecords }

// RecordBytes returns the record size in bytes.
func (e *Engine) RecordBytes() int { return e.store.Config().RecordBytes }

// ReadRecord copies the committed value of record rid into dst (at least
// RecordBytes long) without transactional isolation: it sees the latest
// installed value. Intended for verification, statistics, and read-only
// tooling; use a Txn for isolated reads.
func (e *Engine) ReadRecord(rid uint64, dst []byte) error {
	if e.stopped.Load() {
		return ErrStopped
	}
	return e.store.ReadRecord(rid, dst)
}

// nextTimestamp draws a fresh logical timestamp.
func (e *Engine) nextTimestamp() uint64 { return e.clock.Add(1) }

// segKey namespaces a segment index into the lock manager's key space,
// away from record IDs.
func segKey(segIdx int) uint64 { return 1<<63 | uint64(segIdx) }

// recKey namespaces a record ID into the lock manager's key space.
func recKey(rid uint64) uint64 { return rid }

// Begin starts a transaction. It blocks while a copy-on-update checkpoint
// is quiescing the system (Section 3.2.2: "delaying the start of new
// transactions until all currently executing transactions have
// completed").
func (e *Engine) Begin() (*Txn, error) { return e.begin(false) }

// begin starts a transaction, drawing from the spare-transaction slot
// when reuse is set (the ExecWrite fast path; see recycleTxn).
//
// lockorder:acquires Engine.txnMu
// lockorder:releases Engine.txnMu
func (e *Engine) begin(reuse bool) (*Txn, error) {
	if e.stopped.Load() {
		return nil, ErrStopped
	}
	e.txnMu.Lock()
	// ctxcheck:exempt(woken by finishTxn's Broadcast, unquiesce, and Stop; stop-aware via e.stopped)
	for e.gateClosed {
		e.txnCond.Wait()
		if e.stopped.Load() {
			e.txnMu.Unlock()
			return nil, ErrStopped
		}
	}
	var tx *Txn
	if reuse && e.spareTxn != nil {
		tx = e.spareTxn
		e.spareTxn = nil
		tx.e = e
		tx.id = e.txnSeq.Add(1)
		tx.ts = e.nextTimestamp()
		tx.firstLSN = wal.NilLSN
		tx.done = false
		tx.colorRun, tx.sawWhite, tx.sawBlack = 0, false, false
	} else {
		tx = &Txn{ // alloc:allowed(spare-slot miss: the object is recycled by ExecWrite afterwards)
			e:        e,
			id:       e.txnSeq.Add(1),
			ts:       e.nextTimestamp(),
			firstLSN: wal.NilLSN,
			writes:   make(map[uint64][]byte), // alloc:allowed(spare-slot miss: the map is recycled with the transaction)
		}
	}
	e.activeTxns[tx.id] = tx
	e.txnMu.Unlock()
	e.ctr.txnsBegun.Add(1)
	// The commit root span covers begin→commit so lock-wait children nest
	// inside it; beganNanos additionally feeds the two-color restart
	// attribution histogram for every transaction, sampled or not.
	tx.beganNanos = time.Now().UnixNano()
	tx.span = e.eo.spans.BeginSampled(obs.SpanCommit, tx.id, 0)
	return tx, nil
}

// recycleTxn parks a finished ExecWrite-internal transaction in the
// spare slot so the next ExecWrite reuses it — object, write map, and
// image buffers — without allocating. Only transactions that never
// escaped to a caller may be recycled; user-held Txns are left to the
// garbage collector, so a caller retaining a finished Txn can never
// observe it mutating under a new identity.
//
// lockorder:acquires Engine.txnMu
// lockorder:releases Engine.txnMu
func (e *Engine) recycleTxn(tx *Txn) {
	if !tx.done {
		return
	}
	for rid, img := range tx.writes {
		delete(tx.writes, rid)
		tx.imgFree = append(tx.imgFree, img) // alloc:allowed(freelist growth is amortized: capacity is retained across recycles)
	}
	e.txnMu.Lock()
	if e.spareTxn == nil {
		e.spareTxn = tx
	}
	e.txnMu.Unlock()
}

// finishTxn removes tx from the active registry and wakes the quiesce
// gate. It must run only after the transaction's installs are complete,
// so that a begin-checkpoint marker's active-transaction list is a
// superset of the transactions whose effects may be partially reflected
// in a fuzzy checkpoint.
//
// lockorder:acquires Engine.txnMu
// lockorder:releases Engine.txnMu
func (e *Engine) finishTxn(tx *Txn) {
	e.txnMu.Lock()
	delete(e.activeTxns, tx.id)
	e.txnCond.Broadcast()
	e.txnMu.Unlock()
}

// quiesce closes the transaction gate and waits for every active
// transaction to finish. On success the caller must later call unquiesce.
// It returns ErrStopped without the gate closed when the engine stops
// while waiting, so Close never deadlocks against a checkpoint stuck
// behind a long-lived user transaction.
//
// lockorder:acquires Engine.txnMu
// lockorder:releases Engine.txnMu
func (e *Engine) quiesce() error {
	e.txnMu.Lock()
	e.gateClosed = true
	// ctxcheck:exempt(woken on every finishTxn Broadcast; returns ErrStopped when the engine stops)
	for len(e.activeTxns) > 0 {
		if e.stopped.Load() {
			e.gateClosed = false
			e.txnCond.Broadcast()
			e.txnMu.Unlock()
			return ErrStopped
		}
		e.txnCond.Wait()
	}
	e.txnMu.Unlock()
	return nil
}

// unquiesce reopens the transaction gate.
//
// lockorder:acquires Engine.txnMu
// lockorder:releases Engine.txnMu
func (e *Engine) unquiesce() {
	e.txnMu.Lock()
	e.gateClosed = false
	e.txnCond.Broadcast()
	e.txnMu.Unlock()
}

// activeTxnList snapshots the active-transaction list for a
// begin-checkpoint marker. The caller must hold no engine locks.
//
// lockorder:acquires Engine.txnMu
// lockorder:releases Engine.txnMu
func (e *Engine) activeTxnList() []wal.ActiveTxn {
	e.txnMu.Lock()
	defer e.txnMu.Unlock()
	return e.activeTxnListLocked()
}

// lockcheck:held e.txnMu
func (e *Engine) activeTxnListLocked() []wal.ActiveTxn {
	list := make([]wal.ActiveTxn, 0, len(e.activeTxns))
	for id, tx := range e.activeTxns {
		list = append(list, wal.ActiveTxn{TxnID: id, FirstLSN: tx.firstLSN})
	}
	return list
}

// Exec runs fn inside a transaction, retrying automatically when the
// two-color rule or a deadlock timeout aborts it. Any other error from fn
// aborts the transaction and is returned.
//
// ctxcheck:root(no-ctx convenience wrapper; ExecContext is the cancellable form)
func (e *Engine) Exec(fn func(tx *Txn) error) error {
	return e.ExecContext(context.Background(), fn)
}

// ExecContext is Exec with cancellation: ctx is consulted before the
// first attempt and between retries, so a transaction restarted forever
// by the two-color rule or deadlock timeouts can be abandoned. A
// transaction already executing is never interrupted mid-flight — its
// commit or abort completes normally.
func (e *Engine) ExecContext(ctx context.Context, fn func(tx *Txn) error) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		tx, err := e.Begin()
		if err != nil {
			return err
		}
		err = fn(tx)
		if err == nil {
			err = tx.Commit()
		} else {
			tx.Abort()
		}
		switch {
		case err == nil:
			return nil
		case errors.Is(err, ErrCheckpointConflict), errors.Is(err, ErrDeadlock):
			continue // restart, as the paper's aborted transactions do
		default:
			return err
		}
	}
}

// ExecWrite applies a single-record write in its own transaction,
// retrying automatically when the two-color rule or a deadlock timeout
// aborts it, exactly as Exec does. Unlike Exec it takes no closure and
// recycles its transaction through the spare slot, so a steady stream
// of single-record writes commits without heap allocation (the paper's
// premise that transactions run at memory speed; ROADMAP item 4).
//
// perf:hotpath(closure-free single-record write+commit)
func (e *Engine) ExecWrite(rid uint64, data []byte) error {
	for {
		tx, err := e.begin(true)
		if err != nil {
			return err
		}
		err = tx.Write(rid, data)
		if err == nil {
			err = tx.Commit()
		} else {
			tx.Abort()
		}
		e.recycleTxn(tx)
		switch {
		case err == nil:
			return nil
		case errors.Is(err, ErrCheckpointConflict), errors.Is(err, ErrDeadlock):
			continue // restart, as the paper's aborted transactions do
		default:
			return err
		}
	}
}

// StartCheckpointLoop starts the continuous checkpoint loop, which begins
// a checkpoint every CheckpointInterval (back-to-back when zero). It is a
// no-op if the loop is already running.
func (e *Engine) StartCheckpointLoop() {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	if e.loopStop != nil || e.stopped.Load() {
		return
	}
	e.loopStop = make(chan struct{})
	e.loopDone = make(chan struct{})
	// goleak:joins StopCheckpointLoop receives on loopDone
	go e.checkpointLoop(e.loopStop, e.loopDone)
}

// StopCheckpointLoop stops the continuous checkpoint loop, waiting for an
// in-progress checkpoint to finish.
func (e *Engine) StopCheckpointLoop() {
	e.ckptMu.Lock()
	stop, done := e.loopStop, e.loopDone
	e.loopStop, e.loopDone = nil, nil
	e.ckptMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

func (e *Engine) checkpointLoop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	if d := e.params.CheckpointStagger; d > 0 {
		// Phase-shift the schedule before the first checkpoint so N
		// shards with the same interval hit the backup device at evenly
		// spaced offsets instead of in lockstep.
		select {
		case <-stop:
			return
		case <-time.After(d):
		}
	}
	for {
		select {
		case <-stop:
			return
		default:
		}
		began := time.Now()
		if _, err := e.Checkpoint(); err != nil {
			// A stopped engine ends the loop; other errors are recorded
			// and the loop retries after the interval.
			if e.stopped.Load() {
				return
			}
		}
		deadline := began.Add(e.params.CheckpointInterval)
		if !e.waitForNextCheckpoint(stop, deadline) {
			return
		}
	}
}

// waitForNextCheckpoint sleeps until the interval deadline, the dirty
// threshold (if configured), or a stop signal; it reports whether the
// loop should continue.
func (e *Engine) waitForNextCheckpoint(stop <-chan struct{}, deadline time.Time) bool {
	frac := e.params.CheckpointDirtyFraction
	threshold := 0
	if frac > 0 {
		threshold = int(frac * float64(e.store.NumSegments()))
		if threshold < 1 {
			threshold = 1
		}
	}
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return true
		}
		if threshold > 0 && e.DirtySegments(e.bstore.NextTarget()) >= threshold {
			return true
		}
		poll := remaining
		if threshold > 0 {
			if p := e.params.CheckpointInterval / 20; p > 0 && p < poll {
				poll = p
			}
			if poll > 50*time.Millisecond {
				poll = 50 * time.Millisecond
			}
		}
		select {
		case <-stop:
			return false
		case <-time.After(poll):
		}
	}
}

// DirtySegments counts the segments currently dirty for backup copy
// copyIdx — the work the next checkpoint into that copy would flush.
func (e *Engine) DirtySegments(copyIdx int) int {
	if copyIdx < 0 || copyIdx >= storage.NumBackupCopies {
		return 0
	}
	n := 0
	for i := 0; i < e.store.NumSegments(); i++ {
		seg := e.store.Seg(i)
		seg.RLock()
		if seg.Dirty[copyIdx] {
			n++
		}
		seg.RUnlock()
	}
	return n
}

// Close stops checkpointing, flushes the log, and closes the files. Active
// transactions fail when they next touch the log. Close does not take a
// final checkpoint; recovery replays the log tail written since the last
// one.
//
// An in-flight checkpoint — the loop's or a direct Checkpoint call — is
// drained, not raced: its sweep (including every parallel flush worker,
// which the sweep joins before returning) completes or aborts before the
// log and backup files are closed underneath it. The unquiesce and lock
// shutdown come first so a sweep blocked in quiesce or a two-color lock
// wait observes the stop instead of holding ckptMu forever.
func (e *Engine) Close() error {
	if e.stopped.Swap(true) {
		return nil
	}
	e.unquiesce() // wake Begin and quiesce waiters so they observe the stop
	e.locks.Shutdown()
	// StopCheckpointLoop acquires ckptMu, which an in-flight checkpoint
	// holds for its whole duration: returning from it is the drain.
	e.StopCheckpointLoop()
	err := e.log.Close()
	if cerr := e.bstore.Close(); err == nil {
		err = cerr
	}
	return err
}

// Crash simulates a system failure (Section 2.7): volatile state — the
// primary database and the unflushed log tail (unless stable) — is lost.
// The on-disk backup copies and the durable log remain for Recover.
func (e *Engine) Crash() error {
	if e.stopped.Swap(true) {
		return ErrStopped
	}
	e.unquiesce()
	e.locks.Shutdown()
	e.StopCheckpointLoop()
	err := e.log.Crash()
	if cerr := e.bstore.Close(); err == nil {
		err = cerr
	}
	return err
}

// Dir returns the engine's on-disk directory.
func (e *Engine) Dir() string { return e.params.Dir }

// String implements fmt.Stringer.
func (e *Engine) String() string {
	return fmt.Sprintf("engine.Engine{%v, %d records × %dB, %d segments × %dB}",
		e.params.Algorithm, e.store.Config().NumRecords, e.store.Config().RecordBytes,
		e.store.NumSegments(), e.store.Config().SegmentBytes)
}
