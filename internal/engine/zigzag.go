package engine

// ZIGZAG checkpointing (Cao et al., "A Comparative Study of Consistent
// Snapshot Algorithms for Main-Memory Database Systems", adapted from
// page to segment granularity).
//
// The storage layer keeps two full database images per segment: the live
// slab (Segment.Data) and a shadow slab (Segment.Shadow, allocated by
// Store.EnableShadow when the engine is configured for ZIGZAG). Zigzag's
// two per-segment bits are realised as:
//
//   - ZigPending — "live image still equals the begin-state image". Set
//     for every segment at checkpoint begin (under quiescence, so no
//     writer races the arm pass), cleared by the first writer to touch
//     the segment during the run. That writer flips: it copies the
//     begin-state image onto the shadow slab, swaps Data/Shadow, and
//     installs into the new live image — so the begin-state image parks
//     in Shadow and is never written again until the next begin.
//
//   - SnapNeed — "this run owes the target copy a flush", latched at
//     begin as Full || Dirty[target]. The sweep consults it instead of
//     the live dirty bits because a mid-run flip changes which physical
//     buffer the dirty bits describe.
//
// The sweep latches each segment only long enough to read the two bits
// and capture the begin-state image pointer (Data while ZigPending,
// Shadow after a flip), then flushes WITHOUT the latch: the captured
// buffer is stable — if it was captured while ZigPending, a later flip
// copies from it and parks it as Shadow (never written again this run);
// if captured after a flip, it is already the parked shadow.
//
// The backup is transaction-consistent as of τ(CH), like copy-on-update,
// but the writer-side cost is a segment copy into a preallocated slab —
// no per-update allocation at all.

import "mmdb/internal/storage"

// zigzagArm sets the two zigzag bits on every segment for a new run.
// Called from CheckpointContext with the transaction gate still closed
// (quiesced) and the begin record flushed, before the run is published,
// so no writer can flip before arming completes.
//
// lockorder:held Engine.ckptMu
func (e *Engine) zigzagArm(run *ckptRun) {
	n := e.store.NumSegments()
	for i := 0; i < n; i++ {
		seg := e.store.Seg(i)
		seg.Lock()
		seg.ZigPending = true
		seg.SnapNeed = e.params.Full || seg.Dirty[run.target]
		seg.Unlock()
	}
}

// zigzagSegment secures one segment for a ZIGZAG run: capture the
// begin-state image pointer under a brief latch, flush it unlatched.
// Single-phase like FASTFUZZY — no barrier, because no worker ever waits
// on the log.
//
// No LSN checks are needed: every update in a captured image predates
// the begin-checkpoint record, whose log-tail flush made it durable.
//
// lockorder:held Engine.ckptMu
// walorder:stable-tail every captured zigzag image predates the begin-checkpoint record, whose log-tail flush (Engine.CheckpointContext) already made it durable
func (s *sweeper) zigzagSegment(w int, slot *ckptSlot) {
	seg := s.e.store.Seg(slot.idx)
	seg.Lock()
	data, need := s.e.zigzagCapture(seg, s.run)
	seg.Unlock()
	if need {
		if slot.err = s.e.flushSegment(s.run, slot.idx, data); slot.err != nil {
			return
		}
		slot.flushed = true
	} else {
		slot.skipped = true
	}
	s.done(w, slot)
}

// zigzagCapture reads and consumes the segment's zigzag bits for this
// run, returning the begin-state image to flush (nil, false when the
// segment owes nothing). While ZigPending the live image IS the
// begin-state image and the flush covers the segment's current contents,
// so the target dirty bit clears; after a flip the parked shadow is
// begin-state only, and the live image still owes the target a flush at
// the next checkpoint (the dirty bit stays set, as with a COU old copy).
//
// lockcheck:held seg
func (e *Engine) zigzagCapture(seg *storage.Segment, run *ckptRun) (data []byte, need bool) {
	if !seg.SnapNeed {
		return nil, false
	}
	seg.SnapNeed = false
	if seg.ZigPending {
		seg.Dirty[run.target] = false
		return seg.Data, true
	}
	return seg.Shadow, true
}
