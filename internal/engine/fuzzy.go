package engine

// The fuzzy checkpoints of Section 3.1.
//
// FUZZYCOPY: each (dirty) segment is copied into a main-memory I/O buffer
// under a brief latch; the buffered copy is flushed to the backup disks
// only once the log is durable past the segment's last update (the LSN
// condition), which preserves the write-ahead rule with no transaction
// synchronization at all. In the batched sweep the copy is phase A and
// the flush phase B, so one log flush covers the whole batch.
//
// FASTFUZZY: with a stable log tail every logged update is already
// durable, so segments are flushed directly from the database with neither
// the buffer copy nor the LSN check (Section 4).
//
// The resulting backup is fuzzy: a transaction committing during the sweep
// may have some of its updates in flushed segments and others not. The
// begin-checkpoint marker's active-transaction list tells recovery how far
// back the redo scan must start to repair this.

// fastFuzzySegment is the whole FASTFUZZY protocol for one segment: flush
// it straight from the live segment while latched. The stable tail
// guarantees the write-ahead rule, and the latch only excludes concurrent
// installs for the duration of a buffered file write. Clean segments of
// a partial checkpoint are skipped without running the segment hook.
//
// lockorder:held Engine.ckptMu
func (s *sweeper) fastFuzzySegment(w int, slot *ckptSlot) {
	e, run := s.e, s.run
	seg := e.store.Seg(slot.idx)
	seg.Lock()
	if !e.params.Full && !seg.Dirty[run.target] {
		seg.Unlock()
		slot.skipped = true
		return
	}
	seg.Dirty[run.target] = false
	slot.err = e.flushSegment(run, slot.idx, seg.Data) // walorder:stable-tail FASTFUZZY runs under a stable log tail (Section 4): every logged update is already durable
	seg.Unlock()
	if slot.err != nil {
		return
	}
	slot.flushed = true
	s.done(w, slot)
}

// fuzzyCopySegment is FUZZYCOPY's phase A: copy a segment that owes the
// target a flush into the worker's buffer under the latch and record the
// LSN of its last update. flushPrepared writes the buffer once the batch
// barrier has made that LSN durable.
func (s *sweeper) fuzzyCopySegment(slot *ckptSlot) {
	e, run := s.e, s.run
	seg := e.store.Seg(slot.idx)
	seg.Lock()
	slot.need = e.params.Full || seg.Dirty[run.target]
	if slot.need {
		slot.lsn = seg.Snapshot(slot.buf)
		seg.Dirty[run.target] = false
		e.ctr.checkpointerCopy.Add(1)
	}
	seg.Unlock()
}

// flushPrepared is phase B of FUZZYCOPY and the two-color pair: the
// coordinator's barrier has already waited for the batch's maximum LSN,
// so the segment prepared in phase A can go to disk. 2CFLUSH writes the
// live image, kept stable by the S lock held since phase A, and releases
// the lock after the write; the copy algorithms write the worker's
// buffer. Skipped two-color segments still run the segment hook, since
// they were locked and painted.
//
// lockorder:held Engine.ckptMu
func (s *sweeper) flushPrepared(w int, slot *ckptSlot) {
	e, run := s.e, s.run
	i := slot.idx
	if !slot.need {
		slot.skipped = true
		if run.alg.TwoColor() {
			s.done(w, slot)
		}
		return
	}
	if slot.locked {
		// "2CFLUSH requires that segments be locked for the duration of a
		// disk I/O operation, plus any delay needed to satisfy the LSN
		// condition." The S lock excludes writers, so the live image is
		// stable during the write.
		slot.err = e.flushSegment(run, i, e.store.Seg(i).Data) //nolint:lockcheck // stable: the lock-manager S lock excludes writers (see comment above)    walorder:stable-tail the coordinator's batch barrier (sweeper.runBatch) already waited for this batch's maximum LastLSN
		e.locks.Unlock(checkpointerOwner, segKey(i))
		slot.locked = false
	} else {
		slot.err = e.flushSegment(run, i, slot.buf) // walorder:stable-tail the coordinator's batch barrier (sweeper.runBatch) already waited for this batch's maximum snapshot LSN
	}
	if slot.err != nil {
		return
	}
	slot.flushed = true
	s.done(w, slot)
}
