package engine

import (
	"errors"
	"fmt"
	"time"

	"mmdb/internal/lockmgr"
	"mmdb/internal/obs"
	"mmdb/internal/storage"
	"mmdb/internal/wal"
)

// Txn is a shadow-copy (deferred-update) transaction, modeled on the
// IMS/Fastpath scheme the paper assumes (Section 2.6): updates accumulate
// in a buffer local to the transaction and are installed into the database
// by overwriting only after a positive commit decision, so UNDO logging is
// unnecessary — the log carries redo (after-image) records only.
//
// A Txn must be used by a single goroutine. After Commit or Abort (or any
// error, which aborts the transaction) the Txn is finished and every
// method returns ErrTxnDone.
type Txn struct {
	e  *Engine
	id uint64
	// ts is the transaction's begin timestamp τ(T) (used by COU).
	ts uint64
	// firstLSN is the LSN of the transaction's first logged update,
	// reported in begin-checkpoint markers so recovery can scan back far
	// enough for fuzzy checkpoints.
	firstLSN wal.LSN
	// writes is the local update buffer: record ID → after image.
	writes map[uint64][]byte
	// imgFree is a freelist of full-size after-image buffers harvested by
	// recycleTxn; Write draws from it before allocating. Single-goroutine,
	// like the Txn itself.
	imgFree [][]byte
	done    bool

	// span is the transaction's commit root span, SpanNone when this
	// transaction was not sampled by the span tracer. Child spans (lock
	// waits, WAL appends, checkpoint interference) hang off it.
	span obs.SpanID
	// beganNanos is the wall-clock begin time, stamped for every
	// transaction (sampled or not): the two-color restart attribution
	// histogram charges the whole wasted transaction lifetime.
	beganNanos int64

	// Two-color tracking: the colors of segments touched during checkpoint
	// colorRun.
	colorRun uint64
	sawWhite bool
	sawBlack bool
}

// ID returns the transaction identifier.
func (tx *Txn) ID() uint64 { return tx.id }

// Timestamp returns the transaction's begin timestamp τ(T).
func (tx *Txn) Timestamp() uint64 { return tx.ts }

// lockFail translates a lock manager error, aborts the transaction, and
// returns the engine-level error.
func (tx *Txn) lockFail(err error) error {
	if errors.Is(err, lockmgr.ErrTimeout) || errors.Is(err, lockmgr.ErrDeadlockDetected) {
		tx.e.ctr.lockAborts.Add(1)
		tx.abortInternal()
		return ErrDeadlock
	}
	tx.abortInternal()
	if errors.Is(err, lockmgr.ErrShutdown) {
		return ErrStopped
	}
	return err
}

// checkColor enforces the two-color restriction: no transaction may access
// both white and black records while a two-color checkpoint is in progress
// (Section 3.2.1). On violation the transaction is aborted and
// ErrCheckpointConflict returned; the caller restarts it.
func (tx *Txn) checkColor(seg *storage.Segment) error {
	run := tx.e.cur.Load()
	if run == nil || !run.alg.TwoColor() {
		tx.colorRun = 0
		return nil
	}
	if tx.colorRun != run.id {
		// A new checkpoint resets the palette: at its start every segment
		// is white again, so colors observed under an earlier checkpoint
		// say nothing about this one.
		tx.colorRun = run.id
		tx.sawWhite, tx.sawBlack = false, false
	}
	seg.RLock()
	black := seg.Paint == run.id
	seg.RUnlock()
	if black {
		tx.sawBlack = true
	} else {
		tx.sawWhite = true
	}
	if tx.sawBlack && tx.sawWhite {
		tx.e.ctr.colorRestarts.Add(1)
		// The restart throws away the whole transaction so far; attribute
		// its full lifetime, not just this access.
		tx.e.eo.attrRestartH.Observe(uint64(max(time.Now().UnixNano()-tx.beganNanos, 0)))
		if tx.span != obs.SpanNone {
			s := tx.e.eo.spans.Begin(obs.SpanTwoColorRestart, tx.span, tx.id, run.id)
			tx.e.eo.spans.End(s)
		}
		tx.abortInternal()
		return ErrCheckpointConflict
	}
	return nil
}

// access acquires the transaction-side locks for one record access:
// an intention lock on the segment (two-color algorithms only — fuzzy and
// COU checkpointing require "little or no synchronization" with
// transactions) followed by the record lock.
func (tx *Txn) access(rid uint64, write bool) (*storage.Segment, int, error) {
	seg, segIdx, off, err := tx.e.store.Locate(rid)
	if err != nil {
		tx.abortInternal()
		return nil, 0, err
	}
	// Sampled transactions wrap the lock acquisitions in a lock-wait span;
	// the uncontended fast path costs two clock reads, and only when the
	// transaction was sampled. (The attribution histogram is fed by the
	// lock manager itself, contended path only.)
	lockSpan := obs.SpanNone
	if tx.span != obs.SpanNone {
		lockSpan = tx.e.eo.spans.Begin(obs.SpanLockWait, tx.span, tx.id, rid)
	}
	if tx.e.params.Algorithm.TwoColor() {
		segMode := lockmgr.IS
		if write {
			segMode = lockmgr.IX
		}
		if err := tx.e.locks.Lock(tx.id, segKey(segIdx), segMode, tx.e.params.LockTimeout); err != nil {
			tx.e.eo.spans.End(lockSpan)
			return nil, 0, tx.lockFail(err)
		}
	}
	recMode := lockmgr.S
	if write {
		recMode = lockmgr.X
	}
	if err := tx.e.locks.Lock(tx.id, recKey(rid), recMode, tx.e.params.LockTimeout); err != nil {
		tx.e.eo.spans.End(lockSpan)
		return nil, 0, tx.lockFail(err)
	}
	tx.e.eo.spans.End(lockSpan)
	if err := tx.checkColor(seg); err != nil {
		return nil, 0, err
	}
	return seg, off, nil
}

// Read returns a copy of record rid as seen by this transaction (its own
// pending write, if any, else the committed value).
func (tx *Txn) Read(rid uint64) ([]byte, error) {
	if tx.done {
		return nil, ErrTxnDone
	}
	if v, ok := tx.writes[rid]; ok {
		out := make([]byte, len(v))
		copy(out, v)
		return out, nil
	}
	seg, off, err := tx.access(rid, false)
	if err != nil {
		return nil, err
	}
	rb := tx.e.store.Config().RecordBytes
	out := make([]byte, rb)
	seg.RLock()
	copy(out, seg.Data[off:off+rb])
	seg.RUnlock()
	tx.e.ctr.recordsRead.Add(1)
	return out, nil
}

// Write stages an update of record rid to data (at most RecordBytes;
// shorter images are zero-padded). The redo record is appended to the log
// immediately; the database itself is only overwritten at commit.
//
// perf:hotpath(per-update log append and buffer staging)
func (tx *Txn) Write(rid uint64, data []byte) error {
	if tx.done {
		return ErrTxnDone
	}
	rb := tx.e.store.Config().RecordBytes
	if len(data) > rb {
		tx.abortInternal()
		return fmt.Errorf("engine: record %d write of %d bytes exceeds record size %d", rid, len(data), rb)
	}
	if _, _, err := tx.access(rid, true); err != nil {
		return err
	}
	// Reuse the record's prior image (rewrite within this transaction),
	// then the freelist, before allocating a fresh buffer.
	img, ok := tx.writes[rid]
	if !ok {
		if n := len(tx.imgFree); n > 0 {
			img = tx.imgFree[n-1][:rb]
			tx.imgFree = tx.imgFree[:n-1]
		} else {
			img = make([]byte, rb) // alloc:allowed(first image for this write slot; recycled through the transaction's freelist afterwards)
		}
	}
	copy(img, data)
	clear(img[len(data):])

	rec := &wal.Record{Type: wal.TypeUpdate, TxnID: tx.id, RecordID: rid, Data: img}
	var start wal.LSN
	var err error
	if tx.firstLSN == wal.NilLSN {
		// The first update is logged under the registry mutex so a
		// concurrent begin-checkpoint marker either precedes this record
		// in the log or sees firstLSN in the active-transaction list —
		// never neither.
		tx.e.txnMu.Lock()
		start, _, err = tx.e.log.Append(rec)
		if err == nil {
			tx.firstLSN = start
		}
		tx.e.txnMu.Unlock()
	} else {
		start, _, err = tx.e.log.Append(rec)
	}
	if err != nil {
		tx.abortInternal()
		if errors.Is(err, wal.ErrClosed) {
			return ErrStopped
		}
		return err
	}
	_ = start
	tx.writes[rid] = img
	tx.e.ctr.recordsWritten.Add(1)
	return nil
}

// Commit logs the commit record, optionally waits for it to become
// durable, installs the transaction's updates into the database, and
// releases its locks.
//
// perf:hotpath(commit append, durability wait, and install)
func (tx *Txn) Commit() error {
	if tx.done {
		return ErrTxnDone
	}
	e := tx.e
	began := time.Now()
	var commitEnd wal.LSN
	if len(tx.writes) > 0 {
		walSpan := obs.SpanNone
		if tx.span != obs.SpanNone {
			walSpan = e.eo.spans.Begin(obs.SpanWALAppend, tx.span, tx.id, 0)
		}
		var err error
		_, commitEnd, err = e.log.Append(&wal.Record{Type: wal.TypeCommit, TxnID: tx.id})
		e.eo.spans.End(walSpan)
		if err != nil {
			tx.abortInternal()
			if errors.Is(err, wal.ErrClosed) {
				return ErrStopped
			}
			return err
		}
		if e.params.SyncCommit {
			flushSpan := obs.SpanNone
			if tx.span != obs.SpanNone {
				flushSpan = e.eo.spans.Begin(obs.SpanGroupCommitFlush, tx.span, tx.id, uint64(commitEnd))
			}
			flushBegan := time.Now()
			werr := e.log.WaitDurable(commitEnd)
			e.eo.attrFlushWaitH.Observe(uint64(max(time.Since(flushBegan), 0)))
			e.eo.spans.End(flushSpan)
			if werr != nil {
				// The commit record is appended but its durability is
				// unknown: the flush may have failed after writing part of
				// the tail, or the engine may be stopping. Appending an
				// abort record here would be wrong — if the commit record
				// did reach disk, recovery replays the transaction as
				// committed, and the abort would contradict the recovered
				// state. Treat the transaction as committed in memory
				// (matching the worst case recovery can observe) and report
				// the ambiguity to the caller.
				tx.install(commitEnd)
				tx.done = true
				e.locks.ReleaseAll(tx.id)
				e.finishTxn(tx)
				e.ctr.txnsCommitted.Add(1)
				tx.commitObserved(began)
				if errors.Is(werr, wal.ErrClosed) {
					return fmt.Errorf("%w: %w", ErrCommitInDoubt, ErrStopped)
				}
				return fmt.Errorf("%w: %w", ErrCommitInDoubt, werr)
			}
		}
		tx.install(commitEnd)
	}
	tx.done = true
	e.locks.ReleaseAll(tx.id)
	e.finishTxn(tx)
	e.ctr.txnsCommitted.Add(1)
	tx.commitObserved(began)
	return nil
}

// commitObserved records the commit latency histogram sample, closes the
// commit root span, and arms the slow-op watchdog with the finished
// commit. The span is ended before the watchdog check so a tripped dump
// contains the complete tree.
func (tx *Txn) commitObserved(began time.Time) {
	d := time.Since(began)
	if d < 0 {
		d = 0
	}
	e := tx.e
	e.eo.spans.End(tx.span)
	e.eo.commitH.Observe(uint64(d))
	e.eo.watchdog.Check(obs.WatchCommit, tx.span, int64(d))
	tx.span = obs.SpanNone
}

// install overwrites the old record versions with the transaction's new
// ones (the shadow-copy install of Section 2.6), preserving pre-checkpoint
// segment versions when a copy-on-update checkpoint is in progress
// (Figure 3.2).
func (tx *Txn) install(commitEnd wal.LSN) {
	e := tx.e
	rb := e.store.Config().RecordBytes
	for rid, img := range tx.writes {
		seg, segIdx, off, err := e.store.Locate(rid)
		if err != nil {
			// Locate was validated during Write; this cannot happen.
			panic(fmt.Sprintf("engine: install: %v", err))
		}
		seg.Lock()
		if run := e.cur.Load(); run != nil {
			switch {
			case run.alg.CopyOnUpdate():
				if int64(segIdx) > run.curSeg.Load() && seg.TS <= run.tau && seg.Old == nil {
					// First post-checkpoint update of a not-yet-dumped segment:
					// save the old version so the checkpointer still sees the
					// transaction-consistent snapshot taken at τ(CH).
					couSpan := obs.SpanNone
					if tx.span != obs.SpanNone {
						couSpan = e.eo.spans.Begin(obs.SpanCOUCopy, tx.span, tx.id, uint64(segIdx))
					}
					couBegan := time.Now()
					old := &storage.OldCopy{ // alloc:allowed(copy-on-update old-version preservation: at most one copy per segment per checkpoint, Figure 3.2)
						Data:  append([]byte(nil), seg.Data...), // alloc:allowed(the preserved snapshot must outlive the transaction)
						Dirty: seg.Dirty,
						TS:    seg.TS,
					}
					seg.Old = old
					e.eo.attrCouCopyH.Observe(uint64(max(time.Since(couBegan), 0)))
					e.eo.spans.End(couSpan)
					e.ctr.couCopies.Add(1)
					e.ctr.couCopyBytes.Add(uint64(len(old.Data)))
					e.ctr.bumpCOULive(1)
				}
			case run.alg == Zigzag:
				if seg.ZigPending {
					// First update of an armed segment: flip — park the
					// begin-state image on the shadow slab and install into
					// the other one. At most one flip per segment per run,
					// and no allocation (the shadow slab is preallocated).
					zigSpan := obs.SpanNone
					if tx.span != obs.SpanNone {
						zigSpan = e.eo.spans.Begin(obs.SpanZigzagFlip, tx.span, tx.id, uint64(segIdx))
					}
					zigBegan := time.Now()
					copy(seg.Shadow, seg.Data)
					seg.Data, seg.Shadow = seg.Shadow, seg.Data
					seg.ZigPending = false
					e.eo.attrZigzagH.Observe(uint64(max(time.Since(zigBegan), 0)))
					e.eo.spans.End(zigSpan)
					e.ctr.zigzagFlips.Add(1)
					e.ctr.zigzagFlipBytes.Add(uint64(len(seg.Data)))
				}
			case run.alg == Hourglass:
				tx.hourglassPreserve(run, seg, segIdx)
			}
		}
		copy(seg.Data[off:off+rb], img)
		seg.TS = tx.ts
		seg.LastLSN = wal.MaxLSN(seg.LastLSN, commitEnd)
		seg.Dirty[0] = true
		seg.Dirty[1] = true
		seg.Unlock()
	}
}

// Abort abandons the transaction, logging an abort record if it had
// logged updates (the dead log weight the paper attributes to two-color
// restarts).
func (tx *Txn) Abort() {
	if tx.done {
		return
	}
	tx.abortInternal()
}

func (tx *Txn) abortInternal() {
	if tx.done {
		return
	}
	tx.done = true
	e := tx.e
	if tx.firstLSN != wal.NilLSN {
		// Best effort: a failed append means the engine is stopping, and
		// redo-only recovery ignores the transaction anyway (no commit
		// record).
		_, _, _ = e.log.Append(&wal.Record{Type: wal.TypeAbort, TxnID: tx.id}) //nolint:errcheckwal // see above

	}
	e.locks.ReleaseAll(tx.id)
	e.finishTxn(tx)
	e.ctr.txnsAborted.Add(1)
	if tx.span != obs.SpanNone {
		// The abort marks the commit root so an aborted tree differs
		// from a committed one.
		e.eo.spans.End(e.eo.spans.Begin(obs.SpanTxnAbort, tx.span, tx.id, 0))
	}
	e.eo.spans.End(tx.span)
	tx.span = obs.SpanNone
}
