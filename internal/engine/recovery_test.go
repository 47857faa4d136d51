package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mmdb/internal/backup"
	"mmdb/internal/wal"
)

// applyWorkload runs n transactions of 1–5 uniform record updates each
// (the paper's load model) through Exec, maintaining an oracle of
// committed values. With SyncCommit, every committed transaction is
// durable, so after any crash the recovered database must equal the
// oracle exactly.
func applyWorkload(t *testing.T, e *Engine, rng *rand.Rand, n int, oracle map[uint64]uint64) {
	t.Helper()
	for i := 0; i < n; i++ {
		updates := map[uint64]uint64{}
		for j := 0; j < 1+rng.Intn(5); j++ {
			updates[uint64(rng.Intn(e.NumRecords()))] = rng.Uint64()
		}
		err := e.Exec(func(tx *Txn) error {
			for rid, v := range updates {
				if err := tx.Write(rid, encVal(v)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
		for rid, v := range updates {
			oracle[rid] = v
		}
	}
}

func verifyOracle(t *testing.T, e *Engine, oracle map[uint64]uint64) {
	t.Helper()
	buf := make([]byte, e.RecordBytes())
	for rid := 0; rid < e.NumRecords(); rid++ {
		if err := e.ReadRecord(uint64(rid), buf); err != nil {
			t.Fatalf("ReadRecord(%d): %v", rid, err)
		}
		want := oracle[uint64(rid)]
		if got := decVal(buf); got != want {
			t.Fatalf("record %d = %d, want %d", rid, got, want)
		}
	}
}

// TestCrashRecoveryOracle is the central correctness experiment: for every
// algorithm, run a random workload interleaved with checkpoints, crash,
// recover, and require the recovered primary database to equal the
// committed-transaction oracle. Repeated with full checkpoints and a
// stable log tail.
func TestCrashRecoveryOracle(t *testing.T) {
	variants := []struct {
		name   string
		mutate func(*Params)
	}{
		{"partial", func(p *Params) {}},
		{"full", func(p *Params) { p.Full = true }},
		{"stable-tail", func(p *Params) { p.StableTail = true }},
	}
	for _, alg := range allAlgorithms {
		for _, v := range variants {
			alg, v := alg, v
			t.Run(fmt.Sprintf("%s/%s", alg, v.name), func(t *testing.T) {
				p := testParams(t, alg)
				v.mutate(&p)
				e := mustOpen(t, p)
				rng := rand.New(rand.NewSource(int64(alg)*100 + 1))
				oracle := make(map[uint64]uint64)

				applyWorkload(t, e, rng, 40, oracle)
				if _, err := e.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				applyWorkload(t, e, rng, 40, oracle)
				if _, err := e.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				// Updates after the last checkpoint must come from the log.
				applyWorkload(t, e, rng, 40, oracle)

				if err := e.Crash(); err != nil {
					t.Fatalf("Crash: %v", err)
				}
				e2, rep, err := Recover(p)
				if err != nil {
					t.Fatalf("Recover: %v", err)
				}
				defer e2.Close()
				if !rep.UsedCheckpoint {
					t.Error("recovery ignored the checkpoint")
				}
				if rep.UpdatesApplied == 0 {
					t.Error("recovery applied no redo (post-checkpoint updates must replay)")
				}
				verifyOracle(t, e2, oracle)

				// The recovered engine keeps working: more transactions and
				// another checkpoint.
				applyWorkload(t, e2, rng, 20, oracle)
				if _, err := e2.Checkpoint(); err != nil {
					t.Fatalf("post-recovery checkpoint: %v", err)
				}
				verifyOracle(t, e2, oracle)
			})
		}
	}
}

// TestCrashRecoveryConcurrent runs the oracle test with concurrent writer
// goroutines over disjoint key ranges while the checkpoint loop runs
// back-to-back, for every algorithm.
func TestCrashRecoveryConcurrent(t *testing.T) {
	for _, alg := range allAlgorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			p := testParams(t, alg)
			p.AutoCheckpoint = true
			p.CheckpointInterval = 0 // back-to-back
			e := mustOpen(t, p)

			const writers = 4
			perWriter := e.NumRecords() / writers
			oracles := make([]map[uint64]uint64, writers)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				oracles[w] = make(map[uint64]uint64)
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					base := uint64(w * perWriter)
					for i := 0; i < 60; i++ {
						updates := map[uint64]uint64{}
						for j := 0; j < 1+rng.Intn(4); j++ {
							updates[base+uint64(rng.Intn(perWriter))] = rng.Uint64()
						}
						err := e.Exec(func(tx *Txn) error {
							for rid, v := range updates {
								if err := tx.Write(rid, encVal(v)); err != nil {
									return err
								}
							}
							return nil
						})
						if err != nil {
							t.Errorf("writer %d txn %d: %v", w, i, err)
							return
						}
						for rid, v := range updates {
							oracles[w][rid] = v
						}
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				e.Close()
				return
			}
			// Let at least one checkpoint complete so recovery exercises
			// both the backup and the log.
			for e.Stats().Checkpoints == 0 {
				if _, err := e.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Crash(); err != nil {
				t.Fatal(err)
			}

			oracle := make(map[uint64]uint64)
			for _, o := range oracles {
				for k, v := range o {
					oracle[k] = v
				}
			}
			e2, _, err := Recover(p)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			defer e2.Close()
			verifyOracle(t, e2, oracle)

			if alg.TwoColor() {
				// Back-to-back two-color checkpoints under load should have
				// induced at least some restarts; Exec hides them but the
				// stats record p_restart's numerator.
				t.Logf("%v: color restarts = %d of %d attempts", alg,
					e2.Stats().ColorRestarts, e2.Stats().TxnsBegun)
			}
		})
	}
}

// TestRecoveryWithoutCheckpoint crashes before any checkpoint completes:
// recovery must rebuild from the zero state plus the whole log.
func TestRecoveryWithoutCheckpoint(t *testing.T) {
	p := testParams(t, FuzzyCopy)
	e := mustOpen(t, p)
	rng := rand.New(rand.NewSource(3))
	oracle := make(map[uint64]uint64)
	applyWorkload(t, e, rng, 30, oracle)
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	e2, rep, err := Recover(p)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer e2.Close()
	if rep.UsedCheckpoint {
		t.Error("no checkpoint existed, but recovery claims to have used one")
	}
	if rep.SegmentsLoaded != 0 {
		t.Errorf("SegmentsLoaded = %d, want 0", rep.SegmentsLoaded)
	}
	verifyOracle(t, e2, oracle)
}

// TestMidCheckpointCrashFallsBack crashes a checkpoint halfway through its
// sweep; the ping-pong discipline must leave the previous checkpoint
// usable, and recovery must still reach the oracle via the log.
func TestMidCheckpointCrashFallsBack(t *testing.T) {
	for _, alg := range allAlgorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			crashErr := errors.New("injected crash")
			p := testParams(t, alg)
			var hookArmed bool
			var segsDone int
			p.SegmentHook = func(_ uint64, _, _ int) error {
				if !hookArmed {
					return nil
				}
				segsDone++
				if segsDone >= 3 {
					return crashErr
				}
				return nil
			}
			e := mustOpen(t, p)
			rng := rand.New(rand.NewSource(int64(alg)))
			oracle := make(map[uint64]uint64)

			applyWorkload(t, e, rng, 40, oracle)
			if _, err := e.Checkpoint(); err != nil { // checkpoint 1 completes
				t.Fatal(err)
			}
			applyWorkload(t, e, rng, 40, oracle)

			hookArmed = true
			if _, err := e.Checkpoint(); !errors.Is(err, crashErr) { // checkpoint 2 dies mid-sweep
				t.Fatalf("checkpoint 2 error = %v, want injected crash", err)
			}
			if err := e.Crash(); err != nil {
				t.Fatal(err)
			}

			p.SegmentHook = nil
			e2, rep, err := Recover(p)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			defer e2.Close()
			if !rep.UsedCheckpoint || rep.CheckpointID != 1 {
				t.Errorf("recovered from checkpoint %d (used=%v), want the completed checkpoint 1",
					rep.CheckpointID, rep.UsedCheckpoint)
			}
			verifyOracle(t, e2, oracle)
		})
	}
}

// TestPingPongPartialStaleness exercises DESIGN.md §6.1: a segment updated
// before the previous checkpoint (of the other copy) and clean since must
// still be flushed into the current copy, or recovery from the current
// copy loses it. The redo log is arranged to not cover the update.
func TestPingPongPartialStaleness(t *testing.T) {
	p := testParams(t, FuzzyCopy)
	e := mustOpen(t, p)

	// Record 0 (segment 0) is updated once, before checkpoint 1.
	if err := e.Exec(func(tx *Txn) error { return tx.Write(0, encVal(111)) }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(); err != nil { // ckpt 1 → copy 0 (has record 0)
		t.Fatal(err)
	}
	// Record 8 (segment 1) is updated between checkpoints 1 and 2.
	if err := e.Exec(func(tx *Txn) error { return tx.Write(8, encVal(222)) }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(); err != nil { // ckpt 2 → copy 1 (must carry both)
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(); err != nil { // ckpt 3 → copy 0 (must carry record 8!)
		t.Fatal(err)
	}
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}

	e2, rep, err := Recover(p)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if rep.CheckpointID != 3 || rep.UsedCopy != 0 {
		t.Fatalf("recovered from checkpoint %d copy %d, want 3/0", rep.CheckpointID, rep.UsedCopy)
	}
	// Both updates precede checkpoint 3's begin marker, so neither is
	// replayed from the log; they must be in copy 0 itself.
	if rep.UpdatesApplied != 0 {
		t.Errorf("expected no redo, got %d updates applied", rep.UpdatesApplied)
	}
	if v := readVal(t, e2, 0); v != 111 {
		t.Errorf("record 0 = %d, want 111", v)
	}
	if v := readVal(t, e2, 8); v != 222 {
		t.Errorf("record 8 = %d, want 222 (stale ping-pong copy; see DESIGN.md §6.1)", v)
	}
}

// TestAsyncCommitLostTail shows the durability gap of asynchronous commit
// (the paper's design choice): with a volatile tail and no checkpoint
// forcing the flush, a committed-but-unflushed transaction is lost by a
// crash — and recovery still yields a consistent (older) state.
func TestAsyncCommitLostTail(t *testing.T) {
	p := testParams(t, FuzzyCopy)
	p.SyncCommit = false
	e := mustOpen(t, p)

	if err := e.Exec(func(tx *Txn) error { return tx.Write(1, encVal(5)) }); err != nil {
		t.Fatal(err)
	}
	if err := e.log.Flush(); err != nil { // make the first txn durable
		t.Fatal(err)
	}
	if err := e.Exec(func(tx *Txn) error { return tx.Write(1, encVal(6)) }); err != nil {
		t.Fatal(err)
	}
	// Crash with txn 2 only in the volatile tail.
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	e2, _, err := Recover(p)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if v := readVal(t, e2, 1); v != 5 {
		t.Errorf("record 1 = %d, want 5 (txn 2 was in the lost volatile tail)", v)
	}
}

// TestStableTailSavesAsyncCommits is the same scenario with a stable log
// tail: nothing is lost.
func TestStableTailSavesAsyncCommits(t *testing.T) {
	p := testParams(t, FuzzyCopy)
	p.SyncCommit = false
	p.StableTail = true
	e := mustOpen(t, p)
	if err := e.Exec(func(tx *Txn) error { return tx.Write(1, encVal(5)) }); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(func(tx *Txn) error { return tx.Write(1, encVal(6)) }); err != nil {
		t.Fatal(err)
	}
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	e2, _, err := Recover(p)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if v := readVal(t, e2, 1); v != 6 {
		t.Errorf("record 1 = %d, want 6 (stable tail keeps async commits)", v)
	}
}

// TestCheckpointForcesWriteAhead: with async commit and a volatile tail, a
// checkpoint that flushes a segment must first force the log past the
// segment's last update (the LSN condition), so the committed transaction
// survives even though its commit never waited for the disk.
func TestCheckpointForcesWriteAhead(t *testing.T) {
	p := testParams(t, FuzzyCopy)
	p.SyncCommit = false
	e := mustOpen(t, p)
	if err := e.Exec(func(tx *Txn) error { return tx.Write(1, encVal(7)) }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	e2, _, err := Recover(p)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if v := readVal(t, e2, 1); v != 7 {
		t.Errorf("record 1 = %d, want 7 (checkpoint must flush the log first)", v)
	}
}

// TestUncommittedNeverRecovered leaves a transaction's redo records in the
// durable log without a commit record; redo-only recovery must discard
// them.
func TestUncommittedNeverRecovered(t *testing.T) {
	p := testParams(t, FuzzyCopy)
	e := mustOpen(t, p)
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(2, encVal(13)); err != nil {
		t.Fatal(err)
	}
	if err := e.log.Flush(); err != nil { // redo record durable, no commit
		t.Fatal(err)
	}
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	e2, rep, err := Recover(p)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if rep.UpdatesDiscarded == 0 {
		t.Error("expected discarded updates from the uncommitted transaction")
	}
	if v := readVal(t, e2, 2); v != 0 {
		t.Errorf("record 2 = %d, want 0 (uncommitted update applied!)", v)
	}
}

// TestCorruptBackupFailsLoudly: a bit flip in a backup slot must fail
// recovery with a checksum error, never silently load garbage.
func TestCorruptBackupFailsLoudly(t *testing.T) {
	p := testParams(t, FuzzyCopy)
	e := mustOpen(t, p)
	rng := rand.New(rand.NewSource(41))
	oracle := make(map[uint64]uint64)
	applyWorkload(t, e, rng, 30, oracle)
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the first backup slot of copy 0.
	f, err := os.OpenFile(filepath.Join(p.Dir, "backup0.db"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], 3); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], 3); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, _, err = Recover(p)
	if err == nil {
		t.Fatal("recovery from a corrupt backup succeeded")
	}
	if !errors.Is(err, backup.ErrBadSegment) {
		t.Fatalf("err = %v, want ErrBadSegment", err)
	}
}

// TestRecoverGeometryMismatch ensures recovery rejects a different
// database geometry rather than silently misinterpreting the files.
func TestRecoverGeometryMismatch(t *testing.T) {
	p := testParams(t, FuzzyCopy)
	e := mustOpen(t, p)
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	p2 := p
	p2.Storage.SegmentBytes *= 2
	if _, _, err := Recover(p2); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

// TestGracefulCloseThenRecover: a clean shutdown (Close flushes the log)
// must recover to the exact pre-shutdown state, including transactions
// that committed asynchronously after the last checkpoint.
func TestGracefulCloseThenRecover(t *testing.T) {
	p := testParams(t, COUFlush)
	p.SyncCommit = false // Close's flush is what makes these durable
	e := mustOpen(t, p)
	rng := rand.New(rand.NewSource(31))
	oracle := make(map[uint64]uint64)
	applyWorkload(t, e, rng, 30, oracle)
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applyWorkload(t, e, rng, 30, oracle)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, rep, err := Recover(p)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if rep.UpdatesApplied == 0 {
		t.Error("post-checkpoint async commits should have replayed")
	}
	verifyOracle(t, e2, oracle)
}

// TestConcurrentReadersDuringCheckpoints runs read-only transactions
// against a fixed dataset while every algorithm's checkpointer sweeps;
// readers must always see the committed values (and only two-color
// algorithms may force read retries).
func TestConcurrentReadersDuringCheckpoints(t *testing.T) {
	for _, alg := range allAlgorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			p := testParams(t, alg)
			p.AutoCheckpoint = true
			e := mustOpen(t, p)
			defer e.Close()
			// Fixed dataset.
			if err := e.Exec(func(tx *Txn) error {
				for rid := 0; rid < e.NumRecords(); rid++ {
					if err := tx.Write(uint64(rid), encVal(uint64(rid)*3+1)); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(r)))
					for i := 0; i < 200; i++ {
						rid := uint64(rng.Intn(e.NumRecords()))
						err := e.Exec(func(tx *Txn) error {
							v, err := tx.Read(rid)
							if err != nil {
								return err
							}
							if decVal(v) != rid*3+1 {
								t.Errorf("record %d = %d, want %d", rid, decVal(v), rid*3+1)
							}
							return nil
						})
						if err != nil {
							t.Errorf("reader %d: %v", r, err)
							return
						}
					}
				}(r)
			}
			wg.Wait()
		})
	}
}

// TestTxnIDsNotReusedAcrossRecovery is the regression test for a bug the
// randomized soak found: recovery must continue the transaction ID
// sequence past every ID visible in the log. If IDs restart at 1, a new
// committed transaction can alias an old *aborted* one, and the next
// recovery replays the aborted redo records as committed.
func TestTxnIDsNotReusedAcrossRecovery(t *testing.T) {
	p := testParams(t, FuzzyCopy)
	e := mustOpen(t, p)

	// Txn 1 commits (so there is a commit record for ID 1 in the log).
	if err := e.Exec(func(tx *Txn) error { return tx.Write(0, encVal(7)) }); err != nil {
		t.Fatal(err)
	}
	// Crash and recover: the ID sequence must not restart.
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	e2, _, err := Recover(p)
	if err != nil {
		t.Fatal(err)
	}
	// This transaction would get ID 1 again under the bug; it ABORTS
	// after logging a poison value.
	tx, err := e2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if tx.ID() <= 1 {
		t.Fatalf("post-recovery transaction reused ID %d", tx.ID())
	}
	if err := tx.Write(1, encVal(666)); err != nil {
		t.Fatal(err)
	}
	if err := e2.log.Flush(); err != nil { // make the aborted redo durable
		t.Fatal(err)
	}
	tx.Abort()

	if err := e2.Crash(); err != nil {
		t.Fatal(err)
	}
	e3, _, err := Recover(p)
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	if v := readVal(t, e3, 1); v != 0 {
		t.Fatalf("aborted transaction's write replayed: record 1 = %d", v)
	}
	if v := readVal(t, e3, 0); v != 7 {
		t.Fatalf("committed write lost: record 0 = %d", v)
	}
}

// TestLogCompactionAfterCheckpoints: repeated checkpoints compact the log
// head, LSNs stay stable, and recovery still reaches the oracle from the
// compacted log.
func TestLogCompactionAfterCheckpoints(t *testing.T) {
	p := testParams(t, FuzzyCopy)
	e := mustOpen(t, p)
	rng := rand.New(rand.NewSource(21))
	oracle := make(map[uint64]uint64)
	for round := 0; round < 4; round++ {
		applyWorkload(t, e, rng, 30, oracle)
		if _, err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.LogCompactions == 0 || st.LogBytesCompacted == 0 {
		t.Fatalf("no compaction happened: %+v", st)
	}
	if st.LogCompactFailures != 0 {
		t.Fatalf("%d compaction failures", st.LogCompactFailures)
	}
	if base := e.log.Base(); base == 0 {
		t.Error("log base still 0 after compactions")
	}
	applyWorkload(t, e, rng, 20, oracle) // tail to replay
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	e2, rep, err := Recover(p)
	if err != nil {
		t.Fatalf("Recover from compacted log: %v", err)
	}
	defer e2.Close()
	if rep.UpdatesApplied == 0 {
		t.Error("no redo applied")
	}
	verifyOracle(t, e2, oracle)
}

// TestLogCompactionDisabled keeps the whole log when asked.
func TestLogCompactionDisabled(t *testing.T) {
	p := testParams(t, FuzzyCopy)
	p.DisableLogCompaction = true
	e := mustOpen(t, p)
	defer e.Close()
	rng := rand.New(rand.NewSource(22))
	oracle := make(map[uint64]uint64)
	for round := 0; round < 3; round++ {
		applyWorkload(t, e, rng, 20, oracle)
		if _, err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.LogCompactions != 0 {
		t.Errorf("compactions ran despite DisableLogCompaction: %d", st.LogCompactions)
	}
	if base := e.log.Base(); base != 0 {
		t.Errorf("log base moved to %d with compaction disabled", base)
	}
}

// TestRepeatedCrashRecoverCycles runs several crash/recover cycles,
// extending the workload each time; state must persist across all of them.
func TestRepeatedCrashRecoverCycles(t *testing.T) {
	p := testParams(t, COUCopy)
	rng := rand.New(rand.NewSource(11))
	oracle := make(map[uint64]uint64)

	e := mustOpen(t, p)
	for cycle := 0; cycle < 4; cycle++ {
		applyWorkload(t, e, rng, 25, oracle)
		if cycle%2 == 0 {
			if _, err := e.Checkpoint(); err != nil {
				t.Fatalf("cycle %d checkpoint: %v", cycle, err)
			}
		}
		if err := e.Crash(); err != nil {
			t.Fatalf("cycle %d crash: %v", cycle, err)
		}
		var err error
		e, _, err = Recover(p)
		if err != nil {
			t.Fatalf("cycle %d recover: %v", cycle, err)
		}
		verifyOracle(t, e, oracle)
	}
	e.Close()
}

// maxLogTxnID returns the highest transaction ID in the intact log at dir.
func maxLogTxnID(t *testing.T, dir string) uint64 {
	t.Helper()
	r, err := wal.OpenReader(filepath.Join(dir, logFileName))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var maxID uint64
	if err := r.Scan(r.Base(), func(e wal.Entry) error {
		maxID = max(maxID, e.Rec.TxnID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return maxID
}

// TestTxnIDsNotReusedAfterOlderCopyRecovery extends
// TestTxnIDsNotReusedAcrossRecovery to recovery from the older ping-pong
// copy. Checkpoint 3 dies mid-sweep, so recovery falls back to
// checkpoint 2, and every transaction ID in the log — including that of
// an aborted transaction, the highest — precedes checkpoint 2's scan
// start. Recovery reads the log from its base, so the next transaction
// must still get an ID above all of them, and a later recovery must not
// replay that transaction's aborted write.
func TestTxnIDsNotReusedAfterOlderCopyRecovery(t *testing.T) {
	for _, alg := range allAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			crashErr := errors.New("injected crash")
			p := testParams(t, alg)
			hookArmed, segsDone := false, 0
			p.SegmentHook = func(_ uint64, _, _ int) error {
				if hookArmed {
					if segsDone++; segsDone >= 3 {
						return crashErr
					}
				}
				return nil
			}
			e := mustOpen(t, p)
			rng := rand.New(rand.NewSource(int64(alg) + 40))
			oracle := make(map[uint64]uint64)
			applyWorkload(t, e, rng, 40, oracle)
			if _, err := e.Checkpoint(); err != nil { // checkpoint 1 → copy 0
				t.Fatal(err)
			}
			applyWorkload(t, e, rng, 40, oracle)
			tx, err := e.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Write(2, encVal(555)); err != nil {
				t.Fatal(err)
			}
			tx.Abort()
			abortedID := tx.ID()
			if _, err := e.Checkpoint(); err != nil { // checkpoint 2 → copy 1
				t.Fatal(err)
			}
			hookArmed = true
			if _, err := e.Checkpoint(); !errors.Is(err, crashErr) { // checkpoint 3 → copy 0, dies
				t.Fatalf("checkpoint 3 error = %v, want injected crash", err)
			}
			if err := e.Crash(); err != nil {
				t.Fatal(err)
			}
			logMax := maxLogTxnID(t, p.Dir)
			if logMax != abortedID {
				t.Fatalf("highest txn ID in log = %d, want the aborted transaction's %d", logMax, abortedID)
			}

			p.SegmentHook = nil
			e2, rep, err := Recover(p)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if rep.CheckpointID != 2 || rep.UsedCopy != 1 {
				t.Fatalf("recovered from checkpoint %d copy %d, want 2/1", rep.CheckpointID, rep.UsedCopy)
			}
			if rep.TxnsReplayed != 0 || rep.UpdatesApplied != 0 {
				t.Fatalf("replayed %d txns / %d updates; every transaction precedes the scan start",
					rep.TxnsReplayed, rep.UpdatesApplied)
			}
			tx2, err := e2.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if tx2.ID() <= logMax {
				t.Fatalf("post-recovery transaction got ID %d, not above the log's highest %d", tx2.ID(), logMax)
			}
			if err := tx2.Write(1, encVal(666)); err != nil {
				t.Fatal(err)
			}
			if err := e2.log.Flush(); err != nil { // make the aborted redo durable
				t.Fatal(err)
			}
			tx2.Abort()
			if err := e2.Crash(); err != nil {
				t.Fatal(err)
			}
			e3, _, err := Recover(p)
			if err != nil {
				t.Fatal(err)
			}
			defer e3.Close()
			verifyOracle(t, e3, oracle)
		})
	}
}

// TestTornTailCutsUncommittedTxn tears the log inside the commit record
// of the last transaction: its updates are intact in the log but it never
// committed, so recovery replays exactly the transactions before it and
// counts its updates as discarded.
func TestTornTailCutsUncommittedTxn(t *testing.T) {
	for _, alg := range allAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			p := testParams(t, alg)
			e := mustOpen(t, p)
			rng := rand.New(rand.NewSource(int64(alg) + 50))
			oracle := make(map[uint64]uint64)
			applyWorkload(t, e, rng, 30, oracle)
			if _, err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// Five committed transactions of three updates each, then a
			// sixth whose commit record the crash will tear.
			const committed, perTxn = 5, 3
			for i := 0; i < committed+1; i++ {
				err := e.Exec(func(tx *Txn) error {
					for j := 0; j < perTxn; j++ {
						rid := uint64(8*(i*perTxn+j)) % uint64(e.NumRecords())
						if err := tx.Write(rid, encVal(uint64(1000*i+j+1))); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if i < committed {
					for j := 0; j < perTxn; j++ {
						oracle[uint64(8*(i*perTxn+j))%uint64(e.NumRecords())] = uint64(1000*i + j + 1)
					}
				}
			}
			if err := e.Crash(); err != nil {
				t.Fatal(err)
			}
			// Cut the file three bytes into the last commit record's frame.
			logPath := filepath.Join(p.Dir, logFileName)
			r, err := wal.OpenReader(logPath)
			if err != nil {
				t.Fatal(err)
			}
			var lastCommit wal.LSN
			if err := r.Scan(r.Base(), func(e wal.Entry) error {
				if e.Rec.Type == wal.TypeCommit {
					lastCommit = e.LSN
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			cut := r.FileOffset(lastCommit) + 3
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(logPath, cut); err != nil {
				t.Fatal(err)
			}

			e2, rep, err := Recover(p)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			defer e2.Close()
			if rep.TxnsReplayed != committed || rep.UpdatesApplied != committed*perTxn || rep.UpdatesDiscarded != perTxn {
				t.Errorf("TxnsReplayed/UpdatesApplied/UpdatesDiscarded = %d/%d/%d, want %d/%d/%d",
					rep.TxnsReplayed, rep.UpdatesApplied, rep.UpdatesDiscarded, committed, committed*perTxn, perTxn)
			}
			if rep.TornTailBytes != 3 {
				t.Errorf("TornTailBytes = %d, want 3", rep.TornTailBytes)
			}
			if rep.LogEndLSN != lastCommit {
				t.Errorf("LogEndLSN = %d, want the torn commit record's LSN %d", rep.LogEndLSN, lastCommit)
			}
			verifyOracle(t, e2, oracle)
		})
	}
}

// TestRecoveryChecksBeginMarker: the forward scan cross-checks the
// begin-checkpoint marker against the backup metadata, and recovery
// fails when the marker is missing from the intact log or disagrees.
func TestRecoveryChecksBeginMarker(t *testing.T) {
	// damage is what a case does to the crashed database: info is the
	// recovered copy's metadata and next the LSN of the record after its
	// begin-checkpoint marker.
	type damage func(t *testing.T, dir string, info backup.CheckpointInfo, copyIdx int, next wal.LSN)
	// editMeta sets one field of the recovered copy's metadata.
	editMeta := func(field string, val func(info backup.CheckpointInfo, next wal.LSN) wal.LSN) damage {
		return func(t *testing.T, dir string, info backup.CheckpointInfo, copyIdx int, next wal.LSN) {
			path := filepath.Join(dir, "backup.meta")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var meta map[string]any
			if err := json.Unmarshal(raw, &meta); err != nil {
				t.Fatal(err)
			}
			meta["copies"].([]any)[copyIdx].(map[string]any)[field] = val(info, next)
			if raw, err = json.Marshal(meta); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name   string
		damage damage
	}{
		// The marker is where the metadata says, but its scan start is
		// not.
		{"scan-start-mismatch", editMeta("scan_start_lsn", func(_ backup.CheckpointInfo, next wal.LSN) wal.LSN { return next })},
		// The metadata points at the record after the marker.
		{"begin-lsn-elsewhere", editMeta("begin_lsn", func(_ backup.CheckpointInfo, next wal.LSN) wal.LSN { return next })},
		// No marker of this checkpoint is in the log.
		{"unknown-checkpoint-id", editMeta("id", func(backup.CheckpointInfo, wal.LSN) wal.LSN { return 99 })},
		// The marker is torn off with the log tail.
		{"marker-torn-away", func(t *testing.T, dir string, info backup.CheckpointInfo, _ int, _ wal.LSN) {
			r, err := wal.OpenReader(filepath.Join(dir, logFileName))
			if err != nil {
				t.Fatal(err)
			}
			cut := r.FileOffset(info.BeginLSN) + 5
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(filepath.Join(dir, logFileName), cut); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, alg := range allAlgorithms {
		for _, tc := range cases {
			t.Run(alg.String()+"/"+tc.name, func(t *testing.T) {
				p := testParams(t, alg)
				e := mustOpen(t, p)
				rng := rand.New(rand.NewSource(int64(alg) + 60))
				applyWorkload(t, e, rng, 20, map[uint64]uint64{})
				if _, err := e.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				applyWorkload(t, e, rng, 10, map[uint64]uint64{})
				if err := e.Crash(); err != nil {
					t.Fatal(err)
				}
				bs, err := backup.Open(p.Dir, e.NumSegments(), p.Storage.SegmentBytes)
				if err != nil {
					t.Fatal(err)
				}
				copyIdx, info, err := bs.Latest()
				if cerr := bs.Close(); err != nil || cerr != nil {
					t.Fatal(err, cerr)
				}
				r, err := wal.OpenReader(filepath.Join(p.Dir, logFileName))
				if err != nil {
					t.Fatal(err)
				}
				next := wal.NilLSN
				if err := r.Scan(info.BeginLSN, func(e wal.Entry) error {
					if e.LSN != info.BeginLSN && next == wal.NilLSN {
						next = e.LSN
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
				if next == wal.NilLSN {
					t.Fatal("no log record after the checkpoint marker")
				}
				tc.damage(t, p.Dir, info, copyIdx, next)
				e2, _, err := Recover(p)
				if err == nil {
					e2.Close()
					t.Fatal("recovery succeeded despite a missing or mismatched begin-checkpoint marker")
				}
				if !strings.Contains(err.Error(), "marker") {
					t.Errorf("recovery error %q does not name the marker", err)
				}
			})
		}
	}
}

// TestRecoveryPhasesReconcile: the three timed recovery phases are
// disjoint and sequential, so together they never exceed Elapsed.
func TestRecoveryPhasesReconcile(t *testing.T) {
	for _, alg := range allAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			p := testParams(t, alg)
			p.RecoveryParallelism = 4
			e := mustOpen(t, p)
			rng := rand.New(rand.NewSource(int64(alg) + 70))
			oracle := make(map[uint64]uint64)
			applyWorkload(t, e, rng, 40, oracle)
			if _, err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			applyWorkload(t, e, rng, 40, oracle)
			if err := e.Crash(); err != nil {
				t.Fatal(err)
			}
			e2, rep, err := Recover(p)
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			verifyOracle(t, e2, oracle)
			phases := rep.BackupLoadTime + rep.LogScanTime + rep.RedoApplyTime
			if rep.BackupLoadTime <= 0 || rep.LogScanTime <= 0 || rep.RedoApplyTime <= 0 {
				t.Errorf("a phase was not timed: load %v scan %v redo %v", rep.BackupLoadTime, rep.LogScanTime, rep.RedoApplyTime)
			}
			if phases > rep.Elapsed {
				t.Errorf("load %v + scan %v + redo %v = %v > Elapsed %v",
					rep.BackupLoadTime, rep.LogScanTime, rep.RedoApplyTime, phases, rep.Elapsed)
			}
		})
	}
}
