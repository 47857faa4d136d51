package engine

import (
	"errors"
	"fmt"

	"mmdb/internal/lockmgr"
)

// The black/white locking checkpoints of Section 3.2.1 (after Pu's
// on-the-fly consistent reading algorithm, Figure 3.1).
//
// Every segment starts white; the checkpointer repeatedly picks a white
// segment that is not exclusively locked, locks it in shared mode,
// processes it, paints it black, and unlocks it. It blocks only when all
// remaining white segments are held by writers. The shared segment lock
// conflicts with the intention-exclusive locks writers hold, so a
// processed segment contains no uncommitted data, and the two-color abort
// rule in the transaction path serializes transactions entirely before or
// after the checkpoint.
//
// 2CFLUSH holds the segment lock across the LSN wait and the disk write;
// 2CCOPY copies the segment to a buffer under the lock, releases the lock,
// and flushes the buffer afterwards — trading data movement for shorter
// lock hold times.

// formWhite forms the next two-color batch by Pu's selection rule. It
// passes over the white segments in index order and claims each one whose
// S lock it gets without waiting (TryLock), until the batch is full;
// segments a writer holds stay white for the next pass. Only when a whole
// pass finds nothing free does it block, on the first remaining white
// segment: "request read (shared) lock on any white segment and wait."
// It then holds no other checkpointer lock, since the batch is empty, so
// the blocking wait can never close a waits-for cycle through a segment
// the checkpointer already holds.
//
// lockorder:held Engine.ckptMu
// lockorder:acquires mmdb/internal/lockmgr.Manager.table
func (s *sweeper) formWhite() (int, error) {
	locks := s.e.locks
	count := 0
	for count < len(s.slots) {
		if s.pos < len(s.white) {
			i := s.white[s.pos]
			s.pos++
			if locks.TryLock(checkpointerOwner, segKey(i), lockmgr.S) {
				s.claim(count, i, true)
				count++
			} else {
				s.white[s.kept] = i
				s.kept++
			}
			continue
		}
		// End of a pass: process what it found before waiting on anything.
		if count > 0 {
			break
		}
		s.white, s.pos, s.kept = s.white[:s.kept], 0, 0
		if len(s.white) == 0 {
			break // every segment is black
		}
		i := s.white[0]
		if err := locks.Lock(checkpointerOwner, segKey(i), lockmgr.S, 0); err != nil {
			if errors.Is(err, lockmgr.ErrShutdown) {
				return 0, ErrStopped
			}
			return 0, fmt.Errorf("engine: two-color wait on segment %d: %w", i, err)
		}
		s.white = s.white[1:]
		s.claim(0, i, true)
		count = 1
	}
	return count, nil
}

// twoColorSegment is the two-color phase A: with the S lock formWhite
// took, latch the segment, decide whether it owes the target a flush,
// snapshot it (2CCOPY) or note its last LSN (2CFLUSH), and paint it
// black. 2CCOPY releases the lock here — "the segment can be unlocked as
// soon as it is copied" — as does any clean segment; 2CFLUSH keeps it
// across the barrier and the disk write (flushPrepared).
//
// lockorder:held Engine.ckptMu
// lockorder:held mmdb/internal/lockmgr.Manager.table
func (s *sweeper) twoColorSegment(slot *ckptSlot) {
	e, run := s.e, s.run
	i := slot.idx
	copyMode := run.alg == TwoColorCopy
	seg := e.store.Seg(i)
	seg.Lock()
	slot.need = e.params.Full || seg.Dirty[run.target]
	if slot.need {
		if copyMode {
			slot.lsn = seg.Snapshot(slot.buf)
			e.ctr.checkpointerCopy.Add(1)
		} else {
			slot.lsn = seg.LastLSN
		}
		seg.Dirty[run.target] = false
	}
	seg.Paint = run.id // paint black
	seg.Unlock()
	if copyMode || !slot.need {
		e.locks.Unlock(checkpointerOwner, segKey(i))
		slot.locked = false
	}
}
