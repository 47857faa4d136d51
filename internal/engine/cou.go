package engine

// The copy-on-update checkpoints of Section 3.2.2 (Figure 3.3, after
// DeWitt et al.).
//
// Checkpoint begin has already quiesced the system, stamped the checkpoint
// τ(CH), logged the begin-checkpoint record and flushed the log tail (see
// Engine.CheckpointContext). The transaction-consistent state at that
// instant is the snapshot the sweep writes out. Transactions updating a
// not-yet-dumped segment first preserve its old version (Txn.install), so
// the sweep flushes, for each segment:
//
//   - the old copy, if one exists (the segment was updated after the
//     checkpoint began), or
//   - the live segment, which provably contains only pre-checkpoint data
//     (any post-begin update ahead of the cursor would have created an old
//     copy first).
//
// COUCOPY copies the live segment to a buffer under the latch and flushes
// after unlatching; COUFLUSH flushes while latched. Old copies are flushed
// without any locking — they are private to the checkpointer once taken.
//
// No LSN checks are needed: every update in the snapshot predates the
// begin-checkpoint record, whose log-tail flush made it durable.
//
// The cursor run.curSeg tells updaters which segments are already
// secured: those at or below it skip old-version preservation. It may
// only pass segments that are all secured, so it advances once a batch
// has joined (advanceCursor). A batch of one segment is secured in index
// order, so its worker advances the cursor itself, before the segment
// hook, exactly as a serial checkpointer does. Updaters of batch segments
// already secured but not yet behind the cursor take spurious old copies;
// those sit in the race window just behind the cursor and are released by
// dropOldCopies at the end of the checkpoint.

// couSegment secures one segment for a copy-on-update run.
//
// lockorder:held Engine.ckptMu
// walorder:stable-tail every snapshotted update predates the begin-checkpoint record, whose log-tail flush (Engine.CheckpointContext) already made it durable
func (s *sweeper) couSegment(w int, slot *ckptSlot) {
	e, run := s.e, s.run
	i := slot.idx
	seg := e.store.Seg(i)
	seg.Lock()
	if old := seg.TakeOld(); old != nil {
		seg.Unlock()
		e.ctr.bumpCOULive(-1)
		// Flush the preserved pre-checkpoint version if the segment was
		// dirty for the target copy when it was preserved (or on a full
		// checkpoint). The live segment's dirty bit stays set — its newer
		// contents still owe the target copy a flush at the next
		// checkpoint.
		if e.params.Full || old.Dirty[run.target] {
			if slot.err = e.flushSegment(run, i, old.Data); slot.err != nil {
				return
			}
			slot.flushed = true
		}
	} else {
		need := e.params.Full || seg.Dirty[run.target]
		switch {
		case !need:
			seg.Unlock()
		case run.alg == COUCopy:
			seg.Snapshot(slot.buf)
			seg.Dirty[run.target] = false
			seg.Unlock()
			e.ctr.checkpointerCopy.Add(1)
			if slot.err = e.flushSegment(run, i, slot.buf); slot.err != nil {
				return
			}
			slot.flushed = true
		default: // COUFLUSH: write while latched
			seg.Dirty[run.target] = false
			slot.err = e.flushSegment(run, i, seg.Data)
			seg.Unlock()
			if slot.err != nil {
				return
			}
			slot.flushed = true
		}
	}
	slot.skipped = !slot.flushed
	if s.count == 1 {
		run.curSeg.Store(int64(i))
	}
	s.done(w, slot)
}

// advanceCursor moves the COU cursor past the joined batch: every segment
// up to its last index is secured.
func (s *sweeper) advanceCursor() {
	s.run.curSeg.Store(int64(s.slots[s.count-1].idx))
}
