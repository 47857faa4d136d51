package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mmdb/analytic"
	"mmdb/internal/lockmgr"
)

// allAlgorithms is the canonical list — analytic's, not a copy, so a new
// algorithm is swept by the engine's oracles automatically.
var allAlgorithms = analytic.Algorithms

// parallelParams is testParams with the parallel checkpoint and recovery
// pipelines switched on.
func parallelParams(t *testing.T, alg Algorithm, par int) Params {
	t.Helper()
	p := testParams(t, alg)
	p.CheckpointParallelism = par
	p.RecoveryParallelism = par
	return p
}

// parPauseHook is pauseHook for parallel sweeps: the segment hook fires
// from several worker goroutines concurrently, so arming and the
// pause-once transition must be race-free.
type parPauseHook struct {
	pauseAfter int
	armed      atomic.Bool
	once       sync.Once
	paused     chan struct{} // closed when the matching worker parks
	resume     chan struct{} // test closes to release it
}

func newParPauseHook(after int) *parPauseHook {
	return &parPauseHook{
		pauseAfter: after,
		paused:     make(chan struct{}),
		resume:     make(chan struct{}),
	}
}

func (h *parPauseHook) fn(_ uint64, _, segIdx int) error {
	if h.armed.Load() && segIdx == h.pauseAfter {
		h.armed.Store(false)
		h.once.Do(func() { close(h.paused) })
		<-h.resume
	}
	return nil
}

// TestParallelCheckpointRecovery runs every algorithm through several
// checkpoint rounds with 4 workers, crashes, recovers with 4-way
// parallel backup load and redo apply, and verifies every record
// against an oracle of committed values.
func TestParallelCheckpointRecovery(t *testing.T) {
	for _, alg := range allAlgorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			p := parallelParams(t, alg, 4)
			e := mustOpen(t, p)
			oracle := map[uint64]uint64{}

			write := func(rid, v uint64) {
				t.Helper()
				if err := e.Exec(func(tx *Txn) error { return tx.Write(rid, encVal(v)) }); err != nil {
					t.Fatal(err)
				}
				oracle[rid] = v
			}
			for round := uint64(1); round <= 3; round++ {
				// Touch a spread of segments, including re-updates.
				for i := uint64(0); i < 40; i++ {
					write((i*13)%256, round*1000+i)
				}
				res, err := e.Checkpoint()
				if err != nil {
					t.Fatalf("checkpoint round %d: %v", round, err)
				}
				if res.SegmentsFlushed == 0 {
					t.Fatalf("checkpoint round %d flushed nothing", round)
				}
			}
			// Post-checkpoint tail: durable only through the log.
			for i := uint64(0); i < 16; i++ {
				write(200+i, 9000+i)
			}

			if err := e.Crash(); err != nil {
				t.Fatal(err)
			}
			e2, rep, err := Recover(p)
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			if rep.Parallelism != 4 {
				t.Errorf("RecoveryReport.Parallelism = %d, want 4", rep.Parallelism)
			}
			for rid := uint64(0); rid < 256; rid++ {
				if got, want := readVal(t, e2, rid), oracle[rid]; got != want {
					t.Errorf("record %d = %d, want %d", rid, got, want)
				}
			}
		})
	}
}

// TestParallelCheckpointWithConcurrentWriters overlaps a write workload
// with parallel checkpoints for every algorithm, then proves the
// recovered image reflects exactly the committed values.
func TestParallelCheckpointWithConcurrentWriters(t *testing.T) {
	for _, alg := range allAlgorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			p := parallelParams(t, alg, 4)
			e := mustOpen(t, p)

			stop := make(chan struct{})
			committed := make(map[uint64]uint64)
			writerErr := make(chan error, 1)
			go func() {
				defer close(writerErr)
				for i := uint64(0); ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					rid, v := (i*29)%256, i+1
					// Exec retries checkpoint-conflict and deadlock
					// aborts internally, so success means committed.
					if err := e.Exec(func(tx *Txn) error { return tx.Write(rid, encVal(v)) }); err != nil {
						writerErr <- err
						return
					}
					committed[rid] = v
				}
			}()

			for c := 0; c < 3; c++ {
				if _, err := e.Checkpoint(); err != nil {
					t.Fatalf("checkpoint %d: %v", c, err)
				}
			}
			close(stop)
			if err, ok := <-writerErr; ok && err != nil {
				t.Fatalf("writer: %v", err)
			}

			if err := e.Crash(); err != nil {
				t.Fatal(err)
			}
			e2, _, err := Recover(p)
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			for rid := uint64(0); rid < 256; rid++ {
				if got, want := readVal(t, e2, rid), committed[rid]; got != want {
					t.Errorf("record %d = %d, want %d", rid, got, want)
				}
			}
		})
	}
}

// TestEngineRecoveryOneVsFourWorkers recovers the same crashed
// directory with one worker and with four on the one recovery path
// (striped load, partitioned redo) and demands byte-identical databases
// and matching replay counts.
func TestEngineRecoveryOneVsFourWorkers(t *testing.T) {
	for _, alg := range allAlgorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			p := parallelParams(t, alg, 4)
			e := mustOpen(t, p)
			for i := uint64(0); i < 64; i++ {
				if err := e.Exec(func(tx *Txn) error { return tx.Write((i*11)%256, encVal(i+1)) }); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 32; i++ {
				if err := e.Exec(func(tx *Txn) error { return tx.Write((i*7)%256, encVal(1000+i)) }); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Crash(); err != nil {
				t.Fatal(err)
			}

			// Recovery never mutates the backup directory, only the
			// in-memory database, so the same dir can be recovered twice.
			ps := p
			ps.RecoveryParallelism = 1
			es, repS, err := Recover(ps)
			if err != nil {
				t.Fatalf("one-worker recovery: %v", err)
			}
			defer es.Close()
			ep, repP, err := Recover(p)
			if err != nil {
				t.Fatalf("four-worker recovery: %v", err)
			}
			defer ep.Close()
			if repS.Parallelism != 1 || repP.Parallelism != 4 {
				t.Fatalf("Parallelism: got %d and %d, want 1 and 4", repS.Parallelism, repP.Parallelism)
			}

			if repS.SegmentsLoaded != repP.SegmentsLoaded {
				t.Errorf("SegmentsLoaded: 1 worker %d, 4 workers %d", repS.SegmentsLoaded, repP.SegmentsLoaded)
			}
			if repS.UpdatesApplied != repP.UpdatesApplied {
				t.Errorf("UpdatesApplied: 1 worker %d, 4 workers %d", repS.UpdatesApplied, repP.UpdatesApplied)
			}
			if repS.UpdatesDiscarded != repP.UpdatesDiscarded {
				t.Errorf("UpdatesDiscarded: 1 worker %d, 4 workers %d", repS.UpdatesDiscarded, repP.UpdatesDiscarded)
			}
			bufS := make([]byte, es.RecordBytes())
			bufP := make([]byte, ep.RecordBytes())
			for rid := uint64(0); rid < 256; rid++ {
				if err := es.ReadRecord(rid, bufS); err != nil {
					t.Fatal(err)
				}
				if err := ep.ReadRecord(rid, bufP); err != nil {
					t.Fatal(err)
				}
				if decVal(bufS) != decVal(bufP) {
					t.Errorf("record %d: 1 worker %d, 4 workers %d", rid, decVal(bufS), decVal(bufP))
				}
			}
		})
	}
}

// TestBackupImageEquivalence is the checkpoint-side oracle: the same
// deterministic single-writer history, checkpointed quiescently with one
// worker and with four, must leave byte-identical backup copies and the
// same flushed/skipped counts — first for a full checkpoint, then for a
// partial one.
func TestBackupImageEquivalence(t *testing.T) {
	for _, alg := range allAlgorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			var engines [2]*Engine
			for k, par := range []int{1, 4} {
				p := parallelParams(t, alg, par)
				p.Full = true
				engines[k] = mustOpen(t, p)
				defer engines[k].Close()
			}
			step := func(name string, full bool, writes func(e *Engine)) *CheckpointResult {
				t.Helper()
				var res [2]*CheckpointResult
				for k, e := range engines {
					writes(e)
					e.params.Full = full
					r, err := e.Checkpoint()
					if err != nil {
						t.Fatalf("%s checkpoint: %v", name, err)
					}
					res[k] = r
				}
				if res[0].SegmentsFlushed != res[1].SegmentsFlushed || res[0].SegmentsSkipped != res[1].SegmentsSkipped {
					t.Errorf("%s checkpoint: 1 worker flushed %d skipped %d, 4 workers flushed %d skipped %d", name,
						res[0].SegmentsFlushed, res[0].SegmentsSkipped, res[1].SegmentsFlushed, res[1].SegmentsSkipped)
				}
				if res[0].TargetCopy != res[1].TargetCopy {
					t.Fatalf("%s checkpoint: target copies %d and %d", name, res[0].TargetCopy, res[1].TargetCopy)
				}
				c := res[0].TargetCopy
				segBytes := engines[0].store.Config().SegmentBytes
				a, b := make([]byte, segBytes), make([]byte, segBytes)
				for i := 0; i < engines[0].NumSegments(); i++ {
					wa, err := engines[0].bstore.ReadSegment(c, i, a)
					if err != nil {
						t.Fatal(err)
					}
					wb, err := engines[1].bstore.ReadSegment(c, i, b)
					if err != nil {
						t.Fatal(err)
					}
					if wa != wb || !bytes.Equal(a, b) {
						t.Errorf("%s checkpoint: copy %d segment %d differs (written by %d and %d)", name, c, i, wa, wb)
					}
				}
				return res[0]
			}
			write := func(e *Engine, rid, v uint64) {
				if err := e.Exec(func(tx *Txn) error { return tx.Write(rid, encVal(v)) }); err != nil {
					t.Fatal(err)
				}
			}
			step("full", true, func(e *Engine) {
				for i := uint64(0); i < 96; i++ {
					write(e, (i*37)%256, i+1)
				}
			})
			// A new database owes both copies every segment, so the first
			// partial checkpoint, to the copy not yet written, flushes them
			// all; the second, back to copy 0, flushes only the segments
			// written since the full one and skips the rest.
			step("partial", false, func(e *Engine) {
				for i := uint64(0); i < 24; i++ {
					write(e, (i*11)%96, 1000+i)
				}
			})
			res := step("second partial", false, func(e *Engine) {
				for i := uint64(0); i < 8; i++ {
					write(e, 200+i*5, 2000+i)
				}
			})
			if res.SegmentsFlushed == 0 || res.SegmentsSkipped == 0 {
				t.Errorf("second partial checkpoint flushed %d and skipped %d segments, want both > 0",
					res.SegmentsFlushed, res.SegmentsSkipped)
			}
		})
	}
}

// TestCOUCursorBeforeHook pins the copy-on-update cursor order of a
// one-worker sweep: a segment is behind the cursor by the time its
// segment hook runs, as with a serial checkpointer.
func TestCOUCursorBeforeHook(t *testing.T) {
	for _, alg := range []Algorithm{COUFlush, COUCopy} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			p := testParams(t, alg)
			p.Full = true
			var e *Engine
			var hooks atomic.Int64
			p.SegmentHook = func(_ uint64, _, idx int) error {
				hooks.Add(1)
				if cur := e.cur.Load().curSeg.Load(); cur != int64(idx) {
					t.Errorf("segment %d hook ran with the cursor at %d", idx, cur)
				}
				return nil
			}
			e = mustOpen(t, p)
			defer e.Close()
			if _, err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if n := hooks.Load(); n != int64(e.NumSegments()) {
				t.Fatalf("%d segment hooks, want %d", n, e.NumSegments())
			}
		})
	}
}

// TestTwoColorPicksFreeSegment checks Pu's selection rule (Figure 3.1):
// the two-color checkpointer takes white segments that are not locked
// and blocks only when every remaining white segment is. A writer holds
// segment 0, so segment 1 must be flushed before it.
func TestTwoColorPicksFreeSegment(t *testing.T) {
	for _, alg := range []Algorithm{TwoColorFlush, TwoColorCopy} {
		for _, par := range []int{1, 4} {
			alg, par := alg, par
			t.Run(fmt.Sprintf("%v/par%d", alg, par), func(t *testing.T) {
				p := parallelParams(t, alg, par)
				var mu sync.Mutex
				var order []int
				flushed1 := make(chan struct{})
				p.SegmentHook = func(_ uint64, _, idx int) error {
					mu.Lock()
					order = append(order, idx)
					mu.Unlock()
					if idx == 1 {
						close(flushed1)
					}
					return nil
				}
				e := mustOpen(t, p)
				defer e.Close()
				// Records 0 and 8 dirty segments 0 and 1 (8 records each).
				for _, rid := range []uint64{0, 8} {
					if err := e.ExecWrite(rid, encVal(rid+1)); err != nil {
						t.Fatal(err)
					}
				}
				const writer = 1 << 40 // an owner no transaction uses
				if err := e.locks.Lock(writer, segKey(0), lockmgr.IX, 0); err != nil {
					t.Fatal(err)
				}
				ckptErr := make(chan error, 1)
				go func() {
					_, err := e.Checkpoint()
					ckptErr <- err
				}()
				select {
				case <-flushed1:
				case err := <-ckptErr:
					t.Fatalf("checkpoint finished (%v) while segment 0 was locked", err)
				case <-time.After(5 * time.Second):
					t.Fatal("segment 1 was never flushed while segment 0 was locked")
				}
				e.locks.Unlock(writer, segKey(0))
				if err := <-ckptErr; err != nil {
					t.Fatal(err)
				}
				pos := map[int]int{}
				for k, idx := range order {
					pos[idx] = k
				}
				if pos[1] > pos[0] || pos[0] != len(order)-1 {
					t.Errorf("segment order %v: want segment 1 before segment 0, and 0 last", order)
				}
			})
		}
	}
}

// TestCloseDuringCheckpointDrains is the regression test for the
// Close-vs-Checkpoint race: Close must block until the in-flight parallel
// checkpoint has joined its worker pool, not tear the engine down under
// it. Run with -race.
func TestCloseDuringCheckpointDrains(t *testing.T) {
	p := parallelParams(t, FuzzyCopy, 4)
	hook := newParPauseHook(0)
	p.SegmentHook = hook.fn
	e := mustOpen(t, p)

	if err := e.Exec(func(tx *Txn) error {
		for s := 0; s < 8; s++ {
			if err := tx.Write(uint64(8*s), encVal(1)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	hook.armed.Store(true)
	ckptErr := make(chan error, 1)
	go func() {
		_, err := e.Checkpoint()
		ckptErr <- err
	}()
	select {
	case <-hook.paused:
	case <-time.After(5 * time.Second):
		t.Fatal("checkpoint worker never parked")
	}

	closeErr := make(chan error, 1)
	go func() { closeErr <- e.Close() }()
	select {
	case err := <-closeErr:
		t.Fatalf("Close returned (%v) while a checkpoint worker was still running", err)
	case <-time.After(100 * time.Millisecond):
		// Close is draining, as required.
	}

	close(hook.resume)
	if err := <-closeErr; err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The in-flight checkpoint either completed before Close tore the
	// engine down or observed the stop; it must not report corruption.
	if err := <-ckptErr; err != nil && !errors.Is(err, ErrStopped) {
		t.Fatalf("checkpoint after Close: %v", err)
	}
}

// TestExecContextCancellation: a cancelled context stops the retry loop
// before the next attempt.
func TestExecContextCancellation(t *testing.T) {
	e := mustOpen(t, testParams(t, FuzzyCopy))
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := e.ExecContext(ctx, func(tx *Txn) error { return tx.Write(0, encVal(1)) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecContext with cancelled ctx = %v, want context.Canceled", err)
	}

	// A live context behaves exactly like Exec.
	if err := e.ExecContext(context.Background(), func(tx *Txn) error {
		return tx.Write(0, encVal(7))
	}); err != nil {
		t.Fatal(err)
	}
	if v := readVal(t, e, 0); v != 7 {
		t.Fatalf("record 0 = %d, want 7", v)
	}
}

// TestCheckpointContextCancelBetweenBatches cancels a parallel checkpoint
// while a worker batch is parked; the sweep must stop at the next batch
// boundary, leave the target copy incomplete, and the next checkpoint
// must succeed from scratch.
func TestCheckpointContextCancelBetweenBatches(t *testing.T) {
	p := parallelParams(t, FuzzyCopy, 4)
	hook := newParPauseHook(0)
	p.SegmentHook = hook.fn
	e := mustOpen(t, p)
	defer e.Close()

	if err := e.Exec(func(tx *Txn) error {
		for s := 0; s < 8; s++ {
			if err := tx.Write(uint64(8*s), encVal(1)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	hook.armed.Store(true)
	ckptErr := make(chan error, 1)
	go func() {
		_, err := e.CheckpointContext(ctx)
		ckptErr <- err
	}()
	select {
	case <-hook.paused:
	case <-time.After(5 * time.Second):
		t.Fatal("checkpoint worker never parked")
	}
	cancel()
	close(hook.resume)
	if err := <-ckptErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled checkpoint = %v, want context.Canceled", err)
	}

	// The engine is fully usable: the next (uncancelled) checkpoint
	// retries the same target copy and completes.
	res, err := e.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint after cancellation: %v", err)
	}
	if res.SegmentsFlushed == 0 {
		t.Error("post-cancellation checkpoint flushed nothing")
	}

	// CheckpointContext with an already-cancelled context refuses up front.
	if _, err := e.CheckpointContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled CheckpointContext = %v, want context.Canceled", err)
	}
}

// TestDefaultParallelismResolution: zero-valued knobs resolve to the
// host default and negatives are rejected.
func TestDefaultParallelismResolution(t *testing.T) {
	if d := DefaultParallelism(); d < 1 || d > 8 {
		t.Fatalf("DefaultParallelism() = %d, want 1..8", d)
	}
	p := testParams(t, FuzzyCopy)
	p.CheckpointParallelism = 0
	p.RecoveryParallelism = 0
	e := mustOpen(t, p)
	e.Close()

	p = testParams(t, FuzzyCopy)
	p.CheckpointParallelism = -1
	if _, err := Open(p); err == nil {
		t.Error("negative CheckpointParallelism accepted")
	}
	p = testParams(t, FuzzyCopy)
	p.RecoveryParallelism = -2
	if _, err := Open(p); err == nil {
		t.Error("negative RecoveryParallelism accepted")
	}
}
