package engine

import (
	"math/rand"
	"testing"

	"mmdb/internal/faultfs"
)

// TestPaintStateConsistentAfterMetaRenameCrash is the regression test for
// stale per-segment checkpoint state surviving a crash at the narrowest
// completion window: the backup metadata rename that publishes a finished
// checkpoint. For every algorithm it checkpoints, crashes exactly at
// backup.meta.rename, recovers, and asserts the paint state the recovered
// checkpointer observes is pristine — no Paint mark, no zigzag bits, no
// attached old copy, a whole hourglass pool — so the first post-recovery
// run cannot mistake any segment for already-processed, and a full
// checkpoint accounts for every segment.
func TestPaintStateConsistentAfterMetaRenameCrash(t *testing.T) {
	for _, alg := range allAlgorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			inj := faultfs.New(int64(alg))
			if alg.RequiresStableTail() {
				// FASTFUZZY's correctness rests on the stable log tail
				// (stable RAM survives the crash), so the halt must not
				// swallow log writes.
				inj.ExemptOnHalt(faultfs.ClassLog)
			}
			// Hit 1 of backup.meta.rename is Open's genesis metadata; hit 2
			// is the rename publishing the first checkpoint's completion.
			inj.Arm(faultfs.Rule{Point: "backup.meta.rename", Kind: faultfs.Crash, AtHit: 2})

			p := testParams(t, alg)
			p.FS = inj.FS(nil)
			e := mustOpen(t, p)
			rng := rand.New(rand.NewSource(int64(alg)))
			oracle := make(map[uint64]uint64)
			applyWorkload(t, e, rng, 40, oracle)

			if _, err := e.Checkpoint(); err == nil {
				t.Fatal("checkpoint completed through the armed rename crash")
			}
			if !inj.Halted() {
				t.Fatal("armed backup.meta.rename rule never fired")
			}
			// Crash errors are expected: the halted filesystem refuses the
			// shutdown I/O, exactly as a power loss would.
			_ = e.Crash()

			p.FS = nil
			e2, rep, err := Recover(p)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			defer e2.Close()
			if rep.UsedCheckpoint {
				// The completion rename never landed, so the interrupted
				// checkpoint must not be visible to recovery.
				t.Errorf("recovery used checkpoint %d, but no checkpoint completed", rep.CheckpointID)
			}
			verifyOracle(t, e2, oracle)

			n := e2.store.NumSegments()
			for i := 0; i < n; i++ {
				seg := e2.store.Seg(i)
				seg.Lock()
				paint, zig, snap, old := seg.Paint, seg.ZigPending, seg.SnapNeed, seg.Old
				shadow := seg.Shadow
				seg.Unlock()
				if paint != 0 {
					t.Errorf("seg %d: recovered Paint = %d, want 0", i, paint)
				}
				if zig || snap {
					t.Errorf("seg %d: recovered zigzag bits ZigPending=%v SnapNeed=%v, want clear", i, zig, snap)
				}
				if old != nil {
					t.Errorf("seg %d: old copy survived recovery", i)
				}
				if alg == Zigzag && shadow == nil {
					t.Errorf("seg %d: zigzag shadow slab missing after recovery", i)
				}
			}
			if alg == Hourglass {
				e2.hg.mu.Lock()
				free, pend := len(e2.hg.free), len(e2.hg.pending)
				window := e2.hg.window()
				e2.hg.mu.Unlock()
				if free != window || pend != 0 {
					t.Errorf("recovered hourglass pool: %d free (want %d), %d pending (want 0)", free, window, pend)
				}
			}
			st := e2.Stats()
			if st.COULiveOld != 0 {
				t.Errorf("recovered COULiveOld = %d, want 0", st.COULiveOld)
			}

			// The recovered checkpointer must observe every segment: a full
			// checkpoint accounts for flushed + skipped == all segments and
			// completes (the crashed target copy is reusable).
			res, err := e2.Checkpoint()
			if err != nil {
				t.Fatalf("post-recovery checkpoint: %v", err)
			}
			if res.SegmentsFlushed+res.SegmentsSkipped != n {
				t.Errorf("post-recovery checkpoint observed %d+%d segments, want %d",
					res.SegmentsFlushed, res.SegmentsSkipped, n)
			}
			applyWorkload(t, e2, rng, 10, oracle)
			verifyOracle(t, e2, oracle)
		})
	}
}
