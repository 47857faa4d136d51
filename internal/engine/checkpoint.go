package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mmdb/internal/backup"
	"mmdb/internal/obs"
	"mmdb/internal/wal"
)

// checkpointerOwner is the lock-manager owner ID reserved for the
// checkpointer (transaction IDs start at 1).
const checkpointerOwner uint64 = 0

// CheckpointResult summarizes one completed checkpoint.
type CheckpointResult struct {
	ID              uint64
	Algorithm       Algorithm
	TargetCopy      int
	Full            bool
	SegmentsFlushed int
	SegmentsSkipped int
	BytesFlushed    int64
	Duration        time.Duration
	BeginLSN        wal.LSN
	EndLSN          wal.LSN
}

// Checkpoint runs one checkpoint to completion using the engine's
// configured algorithm and returns its summary. Checkpoints are
// serialized; concurrent calls queue.
//
// ctxcheck:root(no-ctx convenience wrapper; CheckpointContext is the cancellable form)
func (e *Engine) Checkpoint() (*CheckpointResult, error) {
	return e.CheckpointContext(context.Background())
}

// CheckpointContext is Checkpoint with cancellation: ctx is consulted
// between sweep batches (between segments with one worker), never
// mid-segment, so a cancelled checkpoint leaves the target copy
// incomplete but every flushed segment image intact — exactly the state
// a crash mid-checkpoint leaves, which recovery already handles by
// falling back to the other ping-pong copy.
//
// lockorder:acquires Engine.ckptMu
// lockorder:releases Engine.ckptMu
func (e *Engine) CheckpointContext(ctx context.Context) (*CheckpointResult, error) {
	if e.stopped.Load() {
		return nil, ErrStopped
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	if e.stopped.Load() {
		return nil, ErrStopped
	}

	started := time.Now()
	if prev := e.ctr.lastBeginNanos.Swap(started.UnixNano()); prev != 0 {
		e.ctr.lastIntervalNanos.Store(uint64(started.UnixNano() - prev))
	}

	alg := e.params.Algorithm
	id := e.ckptSeq
	target := e.bstore.NextTarget()
	run := &ckptRun{id: id, alg: alg, target: target}
	run.curSeg.Store(-1)
	run.span = e.eo.spans.Begin(obs.SpanCheckpoint, obs.SpanNone, id, uint64(target))

	var beginLSN, scanStart wal.LSN
	var err error
	if alg.RequiresQuiesce() {
		// Copy-on-update begin (Figure 3.3): quiesce transaction
		// processing, stamp the checkpoint, log the begin-checkpoint
		// record, and flush the log tail. The run is published before the
		// gate reopens so every post-begin updater sees it.
		qSpan := e.eo.spans.Begin(obs.SpanCkptQuiesce, run.span, id, 0)
		qerr := e.quiesce()
		e.eo.spans.End(qSpan)
		if qerr != nil {
			e.eo.spans.End(run.span)
			return nil, qerr
		}
		run.tau = e.nextTimestamp()
		beginLSN, _, err = e.log.Append(&wal.Record{
			Type:         wal.TypeBeginCheckpoint,
			CheckpointID: id,
			Timestamp:    run.tau,
			TargetCopy:   uint8(target),
			Algorithm:    uint8(alg),
		})
		if err == nil {
			err = e.log.Flush()
		}
		scanStart = beginLSN
		if err == nil {
			if alg == Zigzag {
				// Arm every segment's zigzag bits while writers are still
				// gated, so no flip can precede the arm.
				e.zigzagArm(run)
			}
			e.cur.Store(run)
		}
		e.unquiesce()
	} else {
		run.tau = e.nextTimestamp()
		// The active-transaction list and the marker's log position must
		// be consistent: both are produced under txnMu, which first-update
		// logging also holds (see Txn.Write).
		e.txnMu.Lock()
		active := e.activeTxnListLocked()
		beginLSN, _, err = e.log.Append(&wal.Record{
			Type:         wal.TypeBeginCheckpoint,
			CheckpointID: id,
			Timestamp:    run.tau,
			TargetCopy:   uint8(target),
			Algorithm:    uint8(alg),
			ActiveTxns:   active,
		})
		e.txnMu.Unlock()
		scanStart = beginLSN
		for _, at := range active {
			// MinLSN treats NilLSN (a transaction that has logged nothing
			// yet) as +infinity, so only real first-update positions pull
			// the scan start back.
			scanStart = wal.MinLSN(scanStart, at.FirstLSN)
		}
		if err == nil {
			e.cur.Store(run)
		}
	}
	if err != nil {
		e.eo.spans.End(run.span)
		if errors.Is(err, wal.ErrClosed) {
			return nil, ErrStopped
		}
		return nil, fmt.Errorf("engine: checkpoint %d begin: %w", id, err)
	}
	e.ckptSeq++

	if err := e.bstore.BeginCheckpoint(target, backup.CheckpointInfo{
		ID:           id,
		Algorithm:    alg.String(),
		Full:         e.params.Full,
		BeginLSN:     beginLSN,
		ScanStartLSN: scanStart,
		Timestamp:    run.tau,
	}); err != nil {
		e.cur.Store(nil)
		e.endRunCleanup(alg)
		e.eo.spans.End(run.span)
		return nil, err
	}

	flushed, skipped, bytes, err := e.sweeper.sweep(ctx, run)

	e.cur.Store(nil)
	e.endRunCleanup(alg)
	if err != nil {
		// The target copy stays marked incomplete; recovery falls back to
		// the other ping-pong copy.
		e.eo.spans.End(run.span)
		return nil, fmt.Errorf("engine: checkpoint %d: %w", id, err)
	}

	_, endLSN, err := e.log.Append(&wal.Record{
		Type:         wal.TypeEndCheckpoint,
		CheckpointID: id,
		TargetCopy:   uint8(target),
	})
	if err == nil {
		err = e.log.Flush()
	}
	if err != nil {
		e.eo.spans.End(run.span)
		if errors.Is(err, wal.ErrClosed) {
			return nil, ErrStopped
		}
		return nil, fmt.Errorf("engine: checkpoint %d end marker: %w", id, err)
	}
	if err := e.bstore.FinishCheckpoint(target, endLSN, flushed, bytes); err != nil {
		e.eo.spans.End(run.span)
		return nil, err
	}

	if !e.params.DisableLogCompaction {
		e.compactLog(run)
	}

	dur := time.Since(started)
	e.ctr.checkpoints.Add(1)
	e.ctr.ckptLastNanos.Store(uint64(dur))
	e.eo.ckptH.Observe(uint64(dur))
	e.eo.spans.End(run.span)
	e.eo.watchdog.Check(obs.WatchCheckpoint, run.span, int64(dur))

	return &CheckpointResult{
		ID:              id,
		Algorithm:       alg,
		TargetCopy:      target,
		Full:            e.params.Full,
		SegmentsFlushed: flushed,
		SegmentsSkipped: skipped,
		BytesFlushed:    bytes,
		Duration:        dur,
		BeginLSN:        beginLSN,
		EndLSN:          endLSN,
	}, nil
}

// flushSegment writes one segment image to the target backup copy and
// updates the flush counters, pacing with the configured disk model.
// Safe for concurrent use by distinct workers: the backup store, the
// counters, and the histograms are all internally synchronized, and each
// worker flushes distinct segments.
//
// walorder:write
func (e *Engine) flushSegment(run *ckptRun, idx int, data []byte) error {
	span := e.eo.spans.Begin(obs.SpanCkptSegment, run.span, run.id, uint64(idx))
	began := time.Now()
	if err := e.bstore.WriteSegment(run.target, idx, run.id, data); err != nil {
		e.eo.spans.End(span)
		return err
	}
	e.ctr.segmentsFlushed.Add(1)
	e.ctr.bytesFlushed.Add(uint64(len(data)))
	if sp := e.params.ThrottleSpeedup; sp != 0 {
		time.Sleep(throttleDelay(len(data), sp))
	}
	d := time.Since(began)
	e.eo.spans.End(span)
	e.eo.ckptSegH.Observe(uint64(d))
	return nil
}

// waitLSN blocks until the log is durable past lsn — the write-ahead check
// the paper charges C_lsn for.
//
// walorder:covers
// lockorder:acquires mmdb/internal/wal.Log.mu
// lockorder:releases mmdb/internal/wal.Log.mu
func (e *Engine) waitLSN(lsn wal.LSN) error {
	if lsn == wal.NilLSN {
		return nil
	}
	e.ctr.lsnWaits.Add(1)
	parent := obs.SpanNone
	if run := e.cur.Load(); run != nil {
		parent = run.span
	}
	span := e.eo.spans.Begin(obs.SpanLSNWait, parent, uint64(lsn), 0)
	began := time.Now()
	err := e.log.WaitDurable(lsn)
	e.eo.spans.End(span)
	e.eo.lsnWaitH.ObserveSince(began)
	return err
}

// segmentDone runs the fault-injection hook, if any, after a segment has
// been processed. worker identifies the sweep worker (always 0 with one
// worker) so tests can arm per-worker crash points.
func (e *Engine) segmentDone(run *ckptRun, worker, idx int) error {
	if e.params.SegmentHook == nil {
		return nil
	}
	return e.params.SegmentHook(run.id, worker, idx)
}

// compactLog drops the log head that no recovery can need: records before
// the redo-scan start of every complete checkpoint. Failure is non-fatal
// (the uncompacted log is merely larger); it is recorded in the stats.
// The compaction is a log_compact span in run's checkpoint tree. Caller
// holds ckptMu, so no checkpoint races the metadata reads.
//
// lockorder:held Engine.ckptMu
func (e *Engine) compactLog(run *ckptRun) {
	keep := wal.NilLSN
	for c := 0; c < 2; c++ {
		ci := e.bstore.CopyInfo(c)
		if ci.Complete {
			keep = wal.MinLSN(keep, ci.ScanStartLSN)
		}
	}
	if keep == wal.NilLSN || keep == 0 {
		return
	}
	span := e.eo.spans.Begin(obs.SpanLogCompact, run.span, run.id, uint64(keep))
	freed, err := e.log.Compact(keep)
	e.eo.spans.End(span)
	if err != nil {
		e.ctr.compactErrors.Add(1)
		return
	}
	if freed > 0 {
		e.ctr.compactions.Add(1)
		e.ctr.compactBytes.Add(uint64(freed))
	}
}

// endRunCleanup releases per-run state after the run is unpublished
// (e.cur is nil): COU drops stray old copies, hourglass reclaims its
// window buffers and wakes waiting writers. It runs on the success path
// AND on every error path that published the run — hourglass writers
// blocked on the buffer pool depend on it to wake.
//
// lockorder:held Engine.ckptMu
func (e *Engine) endRunCleanup(alg Algorithm) {
	switch {
	case alg == Hourglass:
		e.hgEndRun()
	case alg.CopyOnUpdate():
		e.dropOldCopies()
	}
}

// dropOldCopies releases any copy-on-update old versions left attached to
// segments (created in the race window just behind the checkpointer's
// cursor; see cou.go).
//
// lockorder:held Engine.ckptMu
func (e *Engine) dropOldCopies() {
	n := e.store.NumSegments()
	for i := 0; i < n; i++ {
		seg := e.store.Seg(i)
		seg.Lock()
		if seg.Old != nil {
			seg.Old = nil
			e.ctr.bumpCOULive(-1)
		}
		seg.Unlock()
	}
}
