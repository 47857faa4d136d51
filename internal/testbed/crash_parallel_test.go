package testbed

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mmdb"
	"mmdb/internal/faultfs"
)

// TestCrashMatrixParallel extends the crash matrix with the parallelism
// axis: every algorithm runs with one worker (armed at the worker-0 crash
// point, the only one a one-worker sweep reports) and with a 4-worker
// pool (armed at the worker-1 point, so the fault can only fire if the
// pool really fans out). Torn backup writes are exercised under
// the 4-worker pool, where several workers write the target copy
// concurrently.
func TestCrashMatrixParallel(t *testing.T) {
	type cell struct {
		point faultfs.Point
		kind  faultfs.Kind
	}
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = []int64{1}
	}
	for _, alg := range mmdb.Algorithms {
		for _, par := range []int{1, 4} {
			// A one-worker sweep attributes every segment to worker 0; with
			// a pool, arming worker 1 proves a second worker actually ran.
			worker := 0
			if par > 1 {
				worker = 1
			}
			cells := []cell{
				{faultfs.PointCheckpointSegWorker(worker), faultfs.Crash},
			}
			if par > 1 {
				cells = append(cells,
					cell{"backup.write", faultfs.Crash},
					cell{"backup.write", faultfs.Torn},
				)
			}
			for _, c := range cells {
				for _, seed := range seeds {
					name := fmt.Sprintf("%v/par%d/%s/%v/seed%d", alg, par, c.point, c.kind, seed)
					alg, par, c, seed := alg, par, c, seed
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						rep, err := RunCrash(CrashScenario{
							Algorithm:   alg,
							Point:       c.point,
							Kind:        c.kind,
							Seed:        seed,
							Dir:         t.TempDir(),
							Parallelism: par,
						})
						if err != nil {
							t.Fatalf("seed %d: %v", seed, err)
						}
						if !rep.Crashed {
							t.Fatalf("seed %d: fault never fired", seed)
						}
						t.Logf("seed %d: acked=%d inDoubt=%d fired=%+v",
							seed, rep.Acked, rep.InDoubt, rep.Fired)
					})
				}
			}
		}
	}
}

// copyTree duplicates a flat database directory so the same crashed state
// can be recovered twice independently.
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if ent.IsDir() {
			t.Fatalf("unexpected subdirectory %q in database dir", ent.Name())
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestRecoveryOneVsFourWorkers crashes a database mid-life for every
// algorithm, then recovers two copies of the identical on-disk state on
// the one recovery path — one with a single loader/apply worker, one with
// 4 — and requires byte-identical databases and matching replay
// accounting.
func TestRecoveryOneVsFourWorkers(t *testing.T) {
	const (
		records     = 256
		recordBytes = 64
	)
	for _, alg := range mmdb.Algorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			dir := t.TempDir()
			cfg := mmdb.Config{
				Dir:                   dir,
				NumRecords:            records,
				RecordBytes:           recordBytes,
				SegmentBytes:          16 * recordBytes,
				Algorithm:             alg,
				StableLogTail:         alg == mmdb.FastFuzzy,
				SyncCommit:            true,
				CheckpointParallelism: 4,
			}
			db, err := mmdb.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			val := func(i uint64) []byte {
				b := make([]byte, recordBytes)
				binary.LittleEndian.PutUint64(b, i)
				return b
			}
			for i := uint64(0); i < 80; i++ {
				if err := db.Exec(func(tx *mmdb.Txn) error {
					return tx.Write((i*37)%records, val(i+1))
				}); err != nil {
					t.Fatal(err)
				}
				if i%25 == 24 {
					if _, err := db.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// A redo tail past the last checkpoint, so recovery must both
			// load the backup and replay the log.
			for i := uint64(0); i < 20; i++ {
				if err := db.Exec(func(tx *mmdb.Txn) error {
					return tx.Write((i*11)%records, val(10000+i))
				}); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Crash(); err != nil {
				t.Fatal(err)
			}

			dirP := copyTree(t, dir)
			cfgS := cfg
			cfgS.RecoveryParallelism = 1
			dbS, repS, err := mmdb.Recover(cfgS)
			if err != nil {
				t.Fatalf("one-worker recovery: %v", err)
			}
			defer dbS.Close()
			cfgP := cfg
			cfgP.Dir = dirP
			cfgP.RecoveryParallelism = 4
			dbP, repP, err := mmdb.Recover(cfgP)
			if err != nil {
				t.Fatalf("four-worker recovery: %v", err)
			}
			defer dbP.Close()
			if repS.Parallelism != 1 || repP.Parallelism != 4 {
				t.Fatalf("Parallelism: got %d and %d, want 1 and 4", repS.Parallelism, repP.Parallelism)
			}

			if repS.UsedCheckpoint != repP.UsedCheckpoint || repS.UsedCopy != repP.UsedCopy {
				t.Errorf("checkpoint choice differs: 1 worker %+v, 4 workers %+v", repS, repP)
			}
			if repS.SegmentsLoaded != repP.SegmentsLoaded {
				t.Errorf("SegmentsLoaded: 1 worker %d, 4 workers %d", repS.SegmentsLoaded, repP.SegmentsLoaded)
			}
			if repS.TxnsReplayed != repP.TxnsReplayed {
				t.Errorf("TxnsReplayed: 1 worker %d, 4 workers %d", repS.TxnsReplayed, repP.TxnsReplayed)
			}
			if repS.UpdatesApplied != repP.UpdatesApplied {
				t.Errorf("UpdatesApplied: 1 worker %d, 4 workers %d", repS.UpdatesApplied, repP.UpdatesApplied)
			}
			if repS.UpdatesDiscarded != repP.UpdatesDiscarded {
				t.Errorf("UpdatesDiscarded: 1 worker %d, 4 workers %d", repS.UpdatesDiscarded, repP.UpdatesDiscarded)
			}
			for rid := uint64(0); rid < records; rid++ {
				gotS, err := dbS.ReadRecord(rid)
				if err != nil {
					t.Fatal(err)
				}
				gotP, err := dbP.ReadRecord(rid)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotS, gotP) {
					t.Errorf("record %d: 1 worker %x, 4 workers %x", rid, gotS[:8], gotP[:8])
				}
			}
		})
	}
}
