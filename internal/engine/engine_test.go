package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mmdb/internal/storage"
)

// Test database geometry: 256 records × 32 B in 32 segments of 256 B.
func testStorage() storage.Config {
	return storage.Config{NumRecords: 256, RecordBytes: 32, SegmentBytes: 256}
}

func testParams(t *testing.T, alg Algorithm) Params {
	t.Helper()
	p := Params{
		Dir:        t.TempDir(),
		Storage:    testStorage(),
		Algorithm:  alg,
		SyncCommit: true,
		// Pin one worker so tests that depend on the sweep's segment
		// order stay deterministic on multicore hosts; parallel_test.go
		// covers wider pools explicitly.
		CheckpointParallelism: 1,
		RecoveryParallelism:   1,
	}
	if alg.RequiresStableTail() {
		p.StableTail = true
	}
	return p
}

func mustOpen(t *testing.T, p Params) *Engine {
	t.Helper()
	e, err := Open(p)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return e
}

func encVal(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func decVal(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// readVal reads record rid's committed value through the engine.
func readVal(t *testing.T, e *Engine, rid uint64) uint64 {
	t.Helper()
	buf := make([]byte, e.RecordBytes())
	if err := e.ReadRecord(rid, buf); err != nil {
		t.Fatalf("ReadRecord(%d): %v", rid, err)
	}
	return decVal(buf)
}

func TestParamsValidation(t *testing.T) {
	base := testParams(t, FuzzyCopy)

	p := base
	p.Dir = ""
	if _, err := Open(p); err == nil {
		t.Error("empty Dir accepted")
	}

	p = base
	p.Algorithm = Algorithm(99)
	if _, err := Open(p); err == nil {
		t.Error("bad algorithm accepted")
	}

	p = base
	p.Algorithm = FastFuzzy
	p.StableTail = false
	if _, err := Open(p); err == nil {
		t.Error("FASTFUZZY without stable tail accepted")
	}

	p = base
	p.Storage.SegmentBytes = 100 // not a record multiple
	if _, err := Open(p); err == nil {
		t.Error("bad geometry accepted")
	}
}

func TestAlgorithmProperties(t *testing.T) {
	cases := []struct {
		a                             Algorithm
		twoColor, cou, fuzzy, copies  bool
		usesLSN, stableOnly, quiesces bool
	}{
		{FuzzyCopy, false, false, true, true, true, false, false},
		{FastFuzzy, false, false, true, false, false, true, false},
		{TwoColorFlush, true, false, false, false, true, false, false},
		{TwoColorCopy, true, false, false, true, true, false, false},
		{COUFlush, false, true, false, false, false, false, true},
		{COUCopy, false, true, false, true, false, false, true},
		{Zigzag, false, false, false, false, false, false, true},
		{Hourglass, false, false, false, false, false, false, true},
	}
	if len(cases) != len(allAlgorithms) {
		t.Fatalf("property table has %d rows but analytic.Algorithms lists %d; extend the table", len(cases), len(allAlgorithms))
	}
	for _, c := range cases {
		if c.a.TwoColor() != c.twoColor || c.a.CopyOnUpdate() != c.cou ||
			c.a.Fuzzy() != c.fuzzy || c.a.CopiesSegments() != c.copies ||
			c.a.UsesLSN() != c.usesLSN || c.a.RequiresStableTail() != c.stableOnly ||
			c.a.RequiresQuiesce() != c.quiesces {
			t.Errorf("%v: property mismatch", c.a)
		}
	}
}

func TestBasicCommitReadback(t *testing.T) {
	e := mustOpen(t, testParams(t, FuzzyCopy))
	defer e.Close()

	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(5, encVal(42)); err != nil {
		t.Fatal(err)
	}
	// Own write visible inside the transaction.
	got, err := tx.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if decVal(got) != 42 {
		t.Errorf("own read = %d, want 42", decVal(got))
	}
	// Not installed yet.
	if v := readVal(t, e, 5); v != 0 {
		t.Errorf("pre-commit value = %d, want 0", v)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if v := readVal(t, e, 5); v != 42 {
		t.Errorf("post-commit value = %d, want 42", v)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("double commit = %v, want ErrTxnDone", err)
	}
	st := e.Stats()
	if st.TxnsCommitted != 1 || st.RecordsWritten != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAbortInvisible(t *testing.T) {
	e := mustOpen(t, testParams(t, FuzzyCopy))
	defer e.Close()
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(5, encVal(99)); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if v := readVal(t, e, 5); v != 0 {
		t.Errorf("aborted write visible: %d", v)
	}
	if _, err := tx.Read(5); !errors.Is(err, ErrTxnDone) {
		t.Errorf("read after abort = %v, want ErrTxnDone", err)
	}
	if st := e.Stats(); st.TxnsAborted != 1 {
		t.Errorf("TxnsAborted = %d, want 1", st.TxnsAborted)
	}
}

func TestReadIsolationFromOtherTxn(t *testing.T) {
	e := mustOpen(t, testParams(t, FuzzyCopy))
	defer e.Close()
	writer, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Write(7, encVal(1)); err != nil {
		t.Fatal(err)
	}
	// Another transaction reading a different record proceeds; reading the
	// X-locked record would block (strict 2PL), so we only check the
	// uncommitted value is not installed.
	if v := readVal(t, e, 7); v != 0 {
		t.Errorf("uncommitted write installed: %d", v)
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteTooLargeRejected(t *testing.T) {
	e := mustOpen(t, testParams(t, FuzzyCopy))
	defer e.Close()
	tx, _ := e.Begin()
	if err := tx.Write(1, make([]byte, 33)); err == nil {
		t.Error("oversized write accepted")
	}
	// The failed write aborted the transaction.
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("commit after failed write = %v, want ErrTxnDone", err)
	}
}

func TestWriteOutOfRangeRejected(t *testing.T) {
	e := mustOpen(t, testParams(t, FuzzyCopy))
	defer e.Close()
	tx, _ := e.Begin()
	if err := tx.Write(uint64(e.NumRecords()), encVal(1)); err == nil {
		t.Error("out-of-range write accepted")
	}
}

func TestDeadlockResolvedByTimeout(t *testing.T) {
	p := testParams(t, FuzzyCopy)
	p.LockTimeout = 100 * time.Millisecond
	e := mustOpen(t, p)
	defer e.Close()

	tx1, _ := e.Begin()
	tx2, _ := e.Begin()
	if err := tx1.Write(1, encVal(1)); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Write(2, encVal(2)); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- tx1.Write(2, encVal(3)) }() // blocks on tx2
	time.Sleep(20 * time.Millisecond)
	err2 := tx2.Write(1, encVal(4)) // deadlock: blocks on tx1
	err1 := <-errCh
	if !errors.Is(err1, ErrDeadlock) && !errors.Is(err2, ErrDeadlock) {
		t.Fatalf("no deadlock victim: err1=%v err2=%v", err1, err2)
	}
	// At least one survivor can finish (its rival was aborted and released
	// its locks).
	if err1 == nil {
		if err := tx1.Commit(); err != nil {
			t.Errorf("survivor tx1 commit: %v", err)
		}
	}
	if err2 == nil {
		if err := tx2.Commit(); err != nil {
			t.Errorf("survivor tx2 commit: %v", err)
		}
	}
	if st := e.Stats(); st.LockAborts == 0 {
		t.Error("LockAborts not counted")
	}
}

func TestExecRetriesAfterDeadlock(t *testing.T) {
	p := testParams(t, FuzzyCopy)
	p.LockTimeout = 50 * time.Millisecond
	e := mustOpen(t, p)
	defer e.Close()

	// Two goroutines repeatedly transfer between the same two records in
	// opposite orders; Exec must absorb deadlock aborts.
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a, b := uint64(1), uint64(2)
			if g == 1 {
				a, b = b, a
			}
			for i := 0; i < 20; i++ {
				err := e.Exec(func(tx *Txn) error {
					if err := tx.Write(a, encVal(uint64(i))); err != nil {
						return err
					}
					return tx.Write(b, encVal(uint64(i)))
				})
				if err != nil {
					t.Errorf("Exec: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := e.Stats(); st.TxnsCommitted != 40 {
		t.Errorf("committed %d, want 40", st.TxnsCommitted)
	}
}

func TestOpenRefusesExistingDatabase(t *testing.T) {
	p := testParams(t, FuzzyCopy)
	e := mustOpen(t, p)
	if err := e.Exec(func(tx *Txn) error { return tx.Write(1, encVal(1)) }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(p); err == nil {
		t.Fatal("Open over a recoverable database should fail")
	}
	// Recover works.
	e2, rep, err := Recover(p)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer e2.Close()
	if !rep.UsedCheckpoint {
		t.Error("recovery should have used the checkpoint")
	}
}

func TestCheckpointEachAlgorithmRoundTrips(t *testing.T) {
	for _, alg := range allAlgorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			e := mustOpen(t, testParams(t, alg))
			defer e.Close()
			rng := rand.New(rand.NewSource(7))
			oracle := make(map[uint64]uint64)
			for i := 0; i < 50; i++ {
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
				if i == 25 {
					if _, err := e.Checkpoint(); err != nil {
						t.Fatalf("mid checkpoint: %v", err)
					}
				}
			}
			res, err := e.Checkpoint()
			if err != nil {
				t.Fatalf("final checkpoint: %v", err)
			}
			if res.Algorithm != alg {
				t.Errorf("result algorithm %v, want %v", res.Algorithm, alg)
			}
			if res.SegmentsFlushed == 0 {
				t.Error("checkpoint flushed nothing")
			}
			// Primary database still matches the oracle after checkpointing.
			for rid, v := range oracle {
				if got := readVal(t, e, rid); got != v {
					t.Fatalf("record %d = %d, want %d", rid, got, v)
				}
			}
			st := e.Stats()
			if st.Checkpoints != 2 {
				t.Errorf("Checkpoints = %d, want 2", st.Checkpoints)
			}
			if alg.UsesLSN() && st.LSNWaits == 0 {
				t.Errorf("%v should perform LSN waits", alg)
			}
			if !alg.UsesLSN() && st.LSNWaits != 0 {
				t.Errorf("%v performed %d LSN waits, want 0", alg, st.LSNWaits)
			}
			if alg.CopiesSegments() && st.CheckpointerCopies == 0 {
				t.Errorf("%v should copy segments", alg)
			}
			if !alg.CopiesSegments() && st.CheckpointerCopies != 0 {
				t.Errorf("%v copied %d segments, want 0", alg, st.CheckpointerCopies)
			}
		})
	}
}

func TestPartialCheckpointSkipsCleanSegments(t *testing.T) {
	e := mustOpen(t, testParams(t, FuzzyCopy))
	defer e.Close()
	if err := e.Exec(func(tx *Txn) error { return tx.Write(0, encVal(1)) }); err != nil {
		t.Fatal(err)
	}
	// Checkpoint 1 → copy 0: only record 0's segment is dirty.
	r1, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if r1.SegmentsFlushed != 1 || r1.SegmentsSkipped != e.NumSegments()-1 {
		t.Errorf("ckpt1 flushed %d skipped %d, want 1/%d", r1.SegmentsFlushed, r1.SegmentsSkipped, e.NumSegments()-1)
	}
	// Checkpoint 2 → copy 1: the segment is still dirty for copy 1.
	r2, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if r2.SegmentsFlushed != 1 {
		t.Errorf("ckpt2 flushed %d, want 1 (ping-pong copy still stale)", r2.SegmentsFlushed)
	}
	// Checkpoint 3 → copy 0 again: nothing dirty anywhere.
	r3, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if r3.SegmentsFlushed != 0 {
		t.Errorf("ckpt3 flushed %d, want 0", r3.SegmentsFlushed)
	}
}

func TestFullCheckpointFlushesEverything(t *testing.T) {
	p := testParams(t, FuzzyCopy)
	p.Full = true
	e := mustOpen(t, p)
	defer e.Close()
	r, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if r.SegmentsFlushed != e.NumSegments() {
		t.Errorf("full checkpoint flushed %d, want %d", r.SegmentsFlushed, e.NumSegments())
	}
}

func TestCheckpointLoopRuns(t *testing.T) {
	p := testParams(t, FastFuzzy)
	p.StableTail = true
	p.AutoCheckpoint = true
	p.CheckpointInterval = time.Millisecond
	e := mustOpen(t, p)
	defer e.Close()
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Checkpoints < 3 {
		if time.Now().After(deadline) {
			t.Fatal("checkpoint loop made no progress")
		}
		time.Sleep(time.Millisecond)
	}
	e.StopCheckpointLoop()
	n := e.Stats().Checkpoints
	time.Sleep(10 * time.Millisecond)
	if e.Stats().Checkpoints != n {
		t.Error("checkpoints continued after StopCheckpointLoop")
	}
}

func TestStatsSnapshot(t *testing.T) {
	e := mustOpen(t, testParams(t, COUCopy))
	defer e.Close()
	if err := e.Exec(func(tx *Txn) error { return tx.Write(3, encVal(5)) }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.TxnsBegun != 1 || st.TxnsCommitted != 1 {
		t.Errorf("txn counts: %+v", st)
	}
	if st.SegmentsFlushed != 1 || st.BytesFlushed != uint64(e.store.Config().SegmentBytes) {
		t.Errorf("flush counts: flushed=%d bytes=%d", st.SegmentsFlushed, st.BytesFlushed)
	}
	if st.LogAppends == 0 || st.LockAcquires == 0 {
		t.Errorf("substrate counters empty: %+v", st)
	}
	if st.PRestart() != 0 {
		t.Errorf("PRestart = %v, want 0", st.PRestart())
	}
}

func TestCloseIdempotentAndStops(t *testing.T) {
	e := mustOpen(t, testParams(t, FuzzyCopy))
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := e.Begin(); !errors.Is(err, ErrStopped) {
		t.Errorf("Begin after Close = %v, want ErrStopped", err)
	}
	if _, err := e.Checkpoint(); !errors.Is(err, ErrStopped) {
		t.Errorf("Checkpoint after Close = %v, want ErrStopped", err)
	}
	buf := make([]byte, 32)
	if err := e.ReadRecord(0, buf); !errors.Is(err, ErrStopped) {
		t.Errorf("ReadRecord after Close = %v, want ErrStopped", err)
	}
}

func TestReadBufferIsCopy(t *testing.T) {
	e := mustOpen(t, testParams(t, FuzzyCopy))
	defer e.Close()
	if err := e.Exec(func(tx *Txn) error { return tx.Write(1, encVal(10)) }); err != nil {
		t.Fatal(err)
	}
	var got []byte
	err := e.Exec(func(tx *Txn) error {
		v, err := tx.Read(1)
		got = v
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	got[0] = 0xFF // must not corrupt the database
	if v := readVal(t, e, 1); v != 10 {
		t.Errorf("database corrupted through read buffer: %d", v)
	}
	if !bytes.Equal(encVal(10), encVal(10)) {
		t.Fatal("sanity")
	}
}
