package engine

// The checkpoint sweep (DESIGN.md §15).
//
// Every algorithm runs on one batched skeleton. The sweep hands segments
// to CheckpointParallelism workers a batch at a time: a batch holds up to
// par segments, slot w of the batch goes to worker w, and the batch joins
// before the next one forms. With par = 1 each batch is one segment
// processed inline on the checkpointing goroutine, which is the paper's
// serial checkpointer. Batches form in index order, so per-worker crash
// points (faultfs "checkpoint.segment.worker<w>") fire reproducibly; the
// two-color family forms them by TryLock instead (twocolor.go). Each
// worker runs the complete per-segment protocol of its algorithm, so it
// holds at most one segment latch and one lock-manager lock at a time and
// the lock-level discipline is that of a single checkpointer.
//
// The families hook into the skeleton at fixed points (sweeper.sweep).
// Only two steps are shared across a batch:
//
//   - The write-ahead LSN wait (FUZZYCOPY, 2CCOPY, 2CFLUSH): workers
//     record their segment's LSN in phase A; the coordinator issues ONE
//     waitLSN for the batch maximum — the log flush that covers the whole
//     batch — and only then do workers flush in phase B. FASTFUZZY, the
//     COU algorithms, ZIGZAG and HOURGLASS need no LSN check (stable tail
//     or pre-flushed begin record), so they run single-phase.
//
//   - The COU cursor: run.curSeg advances to the batch's last index after
//     the batch joins (cou.go).
//
// Workers are ALWAYS joined before the sweep returns, error or not: an
// engine Close that drains the checkpoint (via ckptMu) is therefore also
// guaranteed to have drained the pool.

import (
	"context"
	"time"

	"mmdb/internal/wal"
)

// ckptSlot is the coordinator↔worker exchange for one segment of one
// batch. Slots are touched by exactly one worker between joins, so they
// need no locking.
type ckptSlot struct {
	idx     int     // segment index
	need    bool    // phase A decided the segment owes the target a flush
	lsn     wal.LSN // write-ahead position recorded in phase A
	locked  bool    // two-color: the checkpointer's S lock is still held
	buf     []byte  // per-worker copy buffer (copy-mode algorithms)
	began   time.Time
	flushed bool
	skipped bool
	err     error
}

// sweeper is the engine's checkpoint sweep state. It is built once with
// the engine and reused by every checkpoint (ckptMu serializes them), so
// a sweep allocates nothing of its own: the slots, their copy buffers and
// the two-color white list all live here.
type sweeper struct {
	e     *Engine
	slots []ckptSlot // one per worker
	// Per-run state, reset by sweep.
	run   *ckptRun
	next  int // formNext: first segment of the next batch
	count int // segments in the current batch
	// Two-color state (formWhite): white is the current pass over the
	// white segments, pos the next one to try, kept the locked ones
	// carried to the next pass. whiteAll backs white.
	white, whiteAll []int
	pos, kept       int
	// Sweep totals.
	flushed, skipped int
	bytes            int64
}

// newSweeper builds the sweep state for e's algorithm and
// CheckpointParallelism.
func newSweeper(e *Engine) *sweeper {
	alg := e.params.Algorithm
	s := &sweeper{e: e, slots: make([]ckptSlot, max(e.params.CheckpointParallelism, 1))}
	if alg.CopiesSegments() {
		for w := range s.slots {
			s.slots[w].buf = make([]byte, e.store.Config().SegmentBytes)
		}
	}
	if alg.TwoColor() {
		s.whiteAll = make([]int, e.store.NumSegments())
	}
	return s
}

// sweep writes every segment the run owes its target copy, a batch at a
// time. The skeleton is the same for every algorithm; each family hooks
// into it at fixed points:
//
//	form        the two-color pair forms batches by TryLock (formWhite),
//	            every other family in index order (formNext)
//	before      HOURGLASS drains its pending list (hgDrain)
//	phase A     the family's per-segment protocol (sweeper.work)
//	barrier +   FUZZYCOPY and the two-color pair — exactly the families
//	phase B     whose write-ahead rule needs an LSN check — wait once for
//	            the batch's maximum LSN, then flush (flushPrepared)
//	after       the COU pair advances its cursor (advanceCursor)
//	end         HOURGLASS drains once more (hgDrain)
//
// A batch error stops the sweep after its join and releases any segment
// lock the batch still holds.
//
// lockorder:held Engine.ckptMu
func (s *sweeper) sweep(ctx context.Context, run *ckptRun) (flushed, skipped int, bytes int64, err error) {
	alg := run.alg
	s.run, s.next, s.flushed, s.skipped, s.bytes = run, 0, 0, 0, 0
	if alg.TwoColor() {
		for i := range s.whiteAll {
			s.whiteAll[i] = i
		}
		s.white, s.pos, s.kept = s.whiteAll, 0, 0
	}
	for {
		if err = ctx.Err(); err != nil {
			break
		}
		if alg.TwoColor() {
			s.count, err = s.formWhite()
		} else {
			s.count = s.formNext()
		}
		if err != nil || s.count == 0 {
			break
		}
		if err = s.runBatch(); err != nil {
			s.releaseHeld()
			break
		}
		if alg.CopyOnUpdate() {
			s.advanceCursor()
		}
	}
	if err == nil && alg == Hourglass {
		err = s.hgDrain()
	}
	s.run = nil
	return s.flushed, s.skipped, s.bytes, err
}

// runBatch processes the formed batch s.slots[:s.count] and folds its
// results into the sweep totals. A two-color batch arrives holding its
// segments' S locks; 2CFLUSH keeps them across the barrier's log wait.
//
// lockorder:held Engine.ckptMu
// lockorder:held mmdb/internal/lockmgr.Manager.table
func (s *sweeper) runBatch() error {
	e := s.e
	if s.run.alg == Hourglass {
		if err := s.hgDrain(); err != nil {
			return err
		}
	}
	e.eo.ckptBatchH.Observe(uint64(s.count))
	s.fanOut(false)
	err := s.batchErr()
	if err == nil && s.run.alg.UsesLSN() {
		// Barrier: one write-ahead wait covers the whole batch.
		batchLSN := wal.NilLSN
		for w := 0; w < s.count; w++ {
			if s.slots[w].need {
				batchLSN = wal.MaxLSN(batchLSN, s.slots[w].lsn)
			}
		}
		if err = e.waitLSN(batchLSN); err == nil {
			s.fanOut(true)
			err = s.batchErr()
		}
	}
	segBytes := int64(e.store.Config().SegmentBytes)
	for w := 0; w < s.count; w++ {
		if s.slots[w].flushed {
			s.flushed++
			s.bytes += segBytes
		}
		if s.slots[w].skipped {
			s.skipped++
		}
	}
	return err
}

// fanOut runs phase A (or, with phaseB, phase B) on every slot of the
// batch. A one-segment batch runs inline without building the worker
// closure, so a one-worker sweep allocates nothing per batch.
//
// lockorder:held Engine.ckptMu
func (s *sweeper) fanOut(phaseB bool) {
	if s.count == 1 {
		s.work(0, phaseB)
		return
	}
	fanOut(s.count, func(w int) { s.work(w, phaseB) })
}

// work runs worker w's part of one phase: the family's per-segment
// protocol in phase A, the flush after the barrier in phase B.
//
// lockorder:held Engine.ckptMu
func (s *sweeper) work(w int, phaseB bool) {
	slot := &s.slots[w]
	switch alg := s.run.alg; {
	case phaseB:
		s.flushPrepared(w, slot)
	case alg == FastFuzzy:
		s.fastFuzzySegment(w, slot)
	case alg == FuzzyCopy:
		s.fuzzyCopySegment(slot)
	case alg.TwoColor():
		s.twoColorSegment(slot)
	case alg.CopyOnUpdate():
		s.couSegment(w, slot)
	case alg == Zigzag:
		s.zigzagSegment(w, slot)
	default:
		s.hourglassSegment(w, slot)
	}
}

// formNext forms the next batch in index order: slot w takes segment
// next+w.
func (s *sweeper) formNext() int {
	count := min(len(s.slots), s.e.store.NumSegments()-s.next)
	for w := 0; w < count; w++ {
		s.claim(w, s.next+w, false)
	}
	s.next += count
	return count
}

// claim resets slot w for segment idx, keeping its copy buffer. locked
// records that the coordinator already holds the segment's S lock.
func (s *sweeper) claim(w, idx int, locked bool) {
	slot := &s.slots[w]
	*slot = ckptSlot{idx: idx, buf: slot.buf, locked: locked, lsn: wal.NilLSN, began: time.Now()}
}

// done runs the segment hook for a finished segment and records the
// worker's time on it.
func (s *sweeper) done(w int, slot *ckptSlot) {
	slot.err = s.e.segmentDone(s.run, w, slot.idx)
	s.e.eo.ckptWorkerH.ObserveSince(slot.began)
}

// batchErr returns the lowest-slot error of the current batch.
func (s *sweeper) batchErr() error {
	for w := 0; w < s.count; w++ {
		if err := s.slots[w].err; err != nil {
			return err
		}
	}
	return nil
}

// releaseHeld frees the S locks of slots still holding one. Only error
// paths reach it: a normal phase B releases its own.
//
// lockorder:held Engine.ckptMu
func (s *sweeper) releaseHeld() {
	for w := 0; w < s.count; w++ {
		if slot := &s.slots[w]; slot.locked {
			s.e.locks.Unlock(checkpointerOwner, segKey(slot.idx))
			slot.locked = false
		}
	}
}

// fanOut runs fn(w) for w in [0, count) and returns once all have
// finished. One worker runs inline on the calling goroutine, so a
// one-worker sweep or load spawns no goroutine and makes no channel.
func fanOut(count int, fn func(w int)) {
	if count == 1 {
		fn(0)
		return
	}
	done := make(chan struct{})
	for w := 0; w < count; w++ {
		// goleak:joins the receive loop below takes exactly one token per worker
		go func(w int) {
			defer func() { done <- struct{}{} }()
			fn(w)
		}(w)
	}
	// ctxcheck:exempt(the join is mandatory: every worker sends exactly one token via its deferred send, so this loop always terminates)
	for w := 0; w < count; w++ {
		<-done
	}
}
