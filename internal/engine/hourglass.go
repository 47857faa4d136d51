package engine

// HOURGLASS checkpointing (Cao et al., "A Comparative Study of
// Consistent Snapshot Algorithms for Main-Memory Database Systems",
// adapted from page to segment granularity): windowed copy-on-update.
//
// Plain COU lets the old-version snapshot buffer grow, in the worst
// case, as large as the database (the paper notes this; Stats.COUPeakOld
// measures it). Hourglass bounds it at a fixed window of W preallocated
// segment buffers — the hourglass "waist". A writer that must preserve a
// not-yet-dumped segment draws a buffer from the pool; when the pool is
// empty it RELEASES the segment latch and waits until the checkpointer
// returns one, then re-validates and retries. The checkpointer, for its
// part, prioritizes segments holding old copies (the pending list) so
// buffers recycle quickly, and paints each processed segment with the
// run ID so processing is idempotent and writers stop preserving the
// moment their segment is dumped.
//
// Invariants (property-tested in hourglass_prop_test.go):
//
//   - at most W old copies exist at any instant (couPeak <= W);
//   - the pool is fully free outside checkpoints;
//   - a preserved snapshot is never modified while attached.
//
// Lock order: a writer holding a segment latch (level 40) may take the
// pool mutex (level 45) to draw a buffer or note a pending segment; the
// checkpointer NEVER latches a segment while holding the pool mutex.

import (
	"sync"
	"time"

	"mmdb/internal/obs"
	"mmdb/internal/storage"
)

// hgPool is the fixed window of preallocated old-copy buffers plus the
// drain-priority list. Buffers are *storage.OldCopy values with
// preallocated Data slabs, so attaching an old version on the write path
// allocates nothing.
type hgPool struct {
	mu   sync.Mutex // lockorder:level=45
	cond *sync.Cond
	// w is the window size W, fixed at construction.
	w int
	// free is the available buffer stack. guarded_by:mu
	free []*storage.OldCopy
	// gen is bumped (with a broadcast) at the end of every hourglass
	// checkpoint, waking writers whose run is over. guarded_by:mu
	gen uint64
	// pending lists segment indices that acquired an old copy and await
	// the checkpointer's priority drain. Capacity is the segment count:
	// each segment preserves at most once per run. guarded_by:mu
	pending []int
}

// newHGPool preallocates a pool of window old-copy buffers of segBytes
// each, with a pending list sized for numSegments. The buffer stack is
// fully built before the pool is published, so no lock is needed here.
func newHGPool(window, segBytes, numSegments int) *hgPool {
	free := make([]*storage.OldCopy, 0, window)
	for i := 0; i < window; i++ {
		free = append(free, &storage.OldCopy{Data: make([]byte, segBytes)})
	}
	p := &hgPool{
		w:       window,
		free:    free,
		pending: make([]int, 0, numSegments),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// window returns the pool size W, immutable after construction.
func (p *hgPool) window() int { return p.w }

// tryGet pops a free buffer without blocking, or returns nil. Safe to
// call with a segment latch held (lock order 40 -> 45).
//
// lockorder:acquires hgPool.mu
// lockorder:releases hgPool.mu
func (p *hgPool) tryGet() *storage.OldCopy {
	p.mu.Lock()
	var buf *storage.OldCopy
	if n := len(p.free); n > 0 {
		buf = p.free[n-1]
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	return buf
}

// waitGet blocks until a buffer frees or the run generation moves on
// (hgEndRun), reporting ok=false in the latter case. Callers must NOT
// hold any segment latch — the checkpointer needs latches to return
// buffers.
//
// lockorder:acquires hgPool.mu
// lockorder:releases hgPool.mu
func (p *hgPool) waitGet(gen uint64) (buf *storage.OldCopy, ok bool) {
	p.mu.Lock()
	// ctxcheck:exempt(woken by hgEndRun's broadcast at the end of every hourglass checkpoint, success and error paths alike; the wait cannot outlive the run)
	for len(p.free) == 0 && p.gen == gen {
		p.cond.Wait()
	}
	if p.gen != gen {
		p.mu.Unlock()
		return nil, false
	}
	n := len(p.free)
	buf = p.free[n-1]
	p.free = p.free[:n-1]
	p.mu.Unlock()
	return buf, true
}

// put returns a buffer to the pool and wakes one waiting writer.
//
// lockorder:acquires hgPool.mu
// lockorder:releases hgPool.mu
func (p *hgPool) put(buf *storage.OldCopy) {
	p.mu.Lock()
	p.free = append(p.free, buf) // alloc:allowed(free was allocated with cap=window and never holds more than window buffers; append never grows it)
	p.cond.Signal()
	p.mu.Unlock()
}

// curGen reads the current run generation (for waitGet).
//
// lockorder:acquires hgPool.mu
// lockorder:releases hgPool.mu
func (p *hgPool) curGen() uint64 {
	p.mu.Lock()
	g := p.gen
	p.mu.Unlock()
	return g
}

// noteOld records that segment idx now holds an old copy, for the
// checkpointer's priority drain. Called with the segment latch held
// (lock order 40 -> 45).
//
// lockorder:acquires hgPool.mu
// lockorder:releases hgPool.mu
func (p *hgPool) noteOld(idx int) {
	p.mu.Lock()
	p.pending = append(p.pending, idx) // alloc:allowed(pending was allocated with cap=numSegments and each segment preserves at most once per run; append never grows it)
	p.mu.Unlock()
}

// popPending pops one pending segment index, if any. The checkpointer
// releases the pool mutex before latching the segment.
//
// lockorder:acquires hgPool.mu
// lockorder:releases hgPool.mu
func (p *hgPool) popPending() (idx int, ok bool) {
	p.mu.Lock()
	if n := len(p.pending); n > 0 {
		idx = p.pending[n-1]
		p.pending = p.pending[:n-1]
		ok = true
	}
	p.mu.Unlock()
	return idx, ok
}

// endRun closes out an hourglass run: clears the pending list, bumps the
// generation, and wakes every waiting writer (their run is over; they
// install plainly).
//
// lockorder:acquires hgPool.mu
// lockorder:releases hgPool.mu
func (p *hgPool) endRun() {
	p.mu.Lock()
	p.pending = p.pending[:0]
	p.gen++
	p.cond.Broadcast()
	p.mu.Unlock()
}

// hgEndRun runs after an hourglass checkpoint ends (success OR error),
// with the run already unpublished (e.cur is nil): any old copies still
// attached to segments — left by an aborted sweep, or by writers that
// preserved just before the run ended — are reclaimed into the pool,
// then waiting writers are woken. After it returns the pool is fully
// free again.
//
// lockorder:held Engine.ckptMu
func (e *Engine) hgEndRun() {
	n := e.store.NumSegments()
	for i := 0; i < n; i++ {
		seg := e.store.Seg(i)
		seg.Lock()
		old := seg.TakeOld()
		seg.Unlock()
		if old != nil {
			e.ctr.bumpCOULive(-1)
			e.hg.put(old)
		}
	}
	e.hg.endRun()
}

// hourglassPreserve attaches a windowed old copy to a not-yet-dumped
// segment before tx installs into it. Called with the segment latch
// held; it may release and reacquire the latch while waiting for a
// window buffer, re-validating the preservation condition afterwards.
// Always returns with the latch held.
//
// If the wait ends because the run ended (ok=false), the transaction
// installs plainly — correct, since the checkpoint is over. A NEW run
// cannot have started in the window: hourglass begins with a quiesce,
// which waits for this still-active transaction to finish first.
//
// lockcheck:held seg
func (tx *Txn) hourglassPreserve(run *ckptRun, seg *storage.Segment, segIdx int) {
	e := tx.e
	if seg.Paint == run.id || seg.TS > run.tau || seg.Old != nil {
		return
	}
	buf := e.hg.tryGet()
	if buf == nil {
		// The window is exhausted: release the latch (the checkpointer
		// needs it to return buffers) and wait for a buffer or for the
		// run to end.
		gen := e.hg.curGen()
		seg.Unlock()
		e.ctr.hgWaits.Add(1)
		stallSpan := obs.SpanNone
		if tx.span != obs.SpanNone {
			stallSpan = e.eo.spans.Begin(obs.SpanHourglassStall, tx.span, tx.id, uint64(segIdx))
		}
		stallBegan := time.Now()
		var ok bool
		buf, ok = e.hg.waitGet(gen)
		stalled := time.Since(stallBegan)
		e.eo.attrHgStallH.Observe(uint64(max(stalled, 0)))
		e.eo.spans.End(stallSpan)
		seg.Lock()
		if !ok || e.cur.Load() != run || seg.Paint == run.id || seg.TS > run.tau || seg.Old != nil {
			// The run ended, or the segment was dumped/preserved while we
			// waited; install plainly.
			if buf != nil {
				e.hg.put(buf)
			}
			return
		}
	}
	couSpan := obs.SpanNone
	if tx.span != obs.SpanNone {
		couSpan = e.eo.spans.Begin(obs.SpanCOUCopy, tx.span, tx.id, uint64(segIdx))
	}
	couBegan := time.Now()
	copy(buf.Data, seg.Data)
	buf.Dirty = seg.Dirty
	buf.TS = seg.TS
	seg.Old = buf
	e.eo.attrCouCopyH.Observe(uint64(max(time.Since(couBegan), 0)))
	e.eo.spans.End(couSpan)
	e.hg.noteOld(segIdx)
	e.ctr.couCopies.Add(1)
	e.ctr.couCopyBytes.Add(uint64(len(buf.Data)))
	e.ctr.bumpCOULive(1)
}

// hgProcess secures one segment for the run: it paints the segment with
// the run ID (making processing idempotent and stopping further
// preservation), then flushes either the preserved old copy — returning
// its buffer to the pool — or the live segment while latched (COUFLUSH
// style). As with COU, the live dirty bit stays set after an old-copy
// flush: the newer live contents still owe the target a flush at the
// next checkpoint.
//
// No LSN checks are needed: every flushed image predates the
// begin-checkpoint record, whose log-tail flush made it durable.
//
// lockorder:held Engine.ckptMu
// walorder:stable-tail every hourglass image flushed here predates the begin-checkpoint record, whose log-tail flush (Engine.CheckpointContext) already made it durable
func (e *Engine) hgProcess(run *ckptRun, idx int) (wrote, processed bool, err error) {
	seg := e.store.Seg(idx)
	seg.Lock()
	if seg.Paint == run.id {
		seg.Unlock()
		return false, false, nil // already secured (priority drain vs scan)
	}
	seg.Paint = run.id
	if old := seg.TakeOld(); old != nil {
		seg.Unlock()
		e.ctr.bumpCOULive(-1)
		if e.params.Full || old.Dirty[run.target] {
			err = e.flushSegment(run, idx, old.Data)
			wrote = err == nil
		}
		e.hg.put(old)
		return wrote, true, err
	}
	if !e.params.Full && !seg.Dirty[run.target] {
		seg.Unlock()
		return false, true, nil
	}
	seg.Dirty[run.target] = false
	err = e.flushSegment(run, idx, seg.Data)
	seg.Unlock()
	return err == nil, true, err
}

// hgDrain processes every segment currently on the pending list, folding
// results into the sweep totals. The coordinator drains before every
// batch — draining ahead of the in-order scan is what recycles window
// buffers fast enough for writers — and once more after the last: the
// scan painted every segment, so no old copy can appear from then on,
// but the pending list can still name already-processed segments and
// hgEndRun starts from an empty list. The segment hook never fires from
// the drain, so hook hit counts stay deterministic regardless of writer
// interleaving.
//
// lockorder:held Engine.ckptMu
func (s *sweeper) hgDrain() error {
	segBytes := int64(s.e.store.Config().SegmentBytes)
	for {
		idx, ok := s.e.hg.popPending()
		if !ok {
			return nil
		}
		wrote, processed, err := s.e.hgProcess(s.run, idx)
		if err != nil {
			return err
		}
		if processed {
			if wrote {
				s.flushed++
				s.bytes += segBytes
			} else {
				s.skipped++
			}
		}
	}
}

// hourglassSegment is the in-order scan's step: hgProcess is idempotent
// via the paint, so a segment the drain already secured is neither
// flushed nor skipped again, though its hook still fires.
//
// lockorder:held Engine.ckptMu
func (s *sweeper) hourglassSegment(w int, slot *ckptSlot) {
	wrote, processed, err := s.e.hgProcess(s.run, slot.idx)
	if err != nil {
		slot.err = err
		return
	}
	if processed {
		slot.flushed = wrote
		slot.skipped = !wrote
	}
	s.done(w, slot)
}
