package engine

import (
	"testing"
	"time"

	"mmdb/internal/backup"
)

// TestOpenBackupHookMemStore runs a full checkpoint → crash → recover
// cycle entirely against an in-memory backup store supplied through the
// Params.OpenBackup seam, over every algorithm: the checkpointers and
// recovery must behave identically no matter what stands behind
// backup.Store.
func TestOpenBackupHookMemStore(t *testing.T) {
	for _, alg := range allAlgorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			// One MemStore per subtest, shared between Open and Recover:
			// it plays the surviving disk across the crash.
			var mem *backup.MemStore
			p := testParams(t, alg)
			p.OpenBackup = func(_ string, numSegments, segmentBytes int) (backup.Store, error) {
				if mem == nil {
					var err error
					mem, err = backup.NewMemStore(numSegments, segmentBytes)
					if err != nil {
						return nil, err
					}
				}
				return mem, nil
			}

			e := mustOpen(t, p)
			for rid := uint64(0); rid < 64; rid++ {
				if err := e.ExecWrite(rid, encVal(rid*3+1)); err != nil {
					t.Fatalf("ExecWrite(%d): %v", rid, err)
				}
			}
			if _, err := e.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			// Post-checkpoint writes survive only through the WAL.
			for rid := uint64(0); rid < 32; rid++ {
				if err := e.ExecWrite(rid, encVal(rid*7+5)); err != nil {
					t.Fatalf("ExecWrite(%d): %v", rid, err)
				}
			}
			if err := e.Crash(); err != nil {
				t.Fatalf("Crash: %v", err)
			}
			if mem == nil {
				t.Fatal("OpenBackup hook was never called")
			}
			if st := mem.Stats(); st.SegmentWrites == 0 {
				t.Fatal("checkpoint wrote no segments through the MemStore")
			}

			e2, rep, err := Recover(p)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			defer e2.Close()
			if !rep.UsedCheckpoint {
				t.Error("recovery ignored the MemStore checkpoint")
			}
			for rid := uint64(0); rid < 64; rid++ {
				want := rid*3 + 1
				if rid < 32 {
					want = rid*7 + 5
				}
				if got := readVal(t, e2, rid); got != want {
					t.Errorf("record %d = %d, want %d", rid, got, want)
				}
			}
		})
	}
}

// TestCheckpointStaggerStopsPromptly pins the stagger wait's stop path:
// a loop parked in its phase-shift delay must exit on StopCheckpointLoop
// immediately, not after the (possibly long) stagger elapses.
func TestCheckpointStaggerStopsPromptly(t *testing.T) {
	p := testParams(t, FuzzyCopy)
	p.CheckpointStagger = time.Hour
	e := mustOpen(t, p)
	defer e.Close()

	e.StartCheckpointLoop()
	done := make(chan struct{})
	// goleak:joins the test receives on done below
	go func() {
		e.StopCheckpointLoop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("StopCheckpointLoop hung in the stagger wait")
	}
	if got := e.Stats().Checkpoints; got != 0 {
		t.Errorf("a staggered loop checkpointed %d times before its delay", got)
	}
}
