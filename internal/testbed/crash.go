package testbed

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"mmdb"
	"mmdb/internal/backup"
	"mmdb/internal/faultfs"
)

// CrashScenario is one cell of the crash matrix: run a randomized
// transaction workload against one checkpoint algorithm, inject one fault
// at a named crash point, recover, and check the recovered database
// against an in-memory oracle of acknowledged transactions.
//
// Everything random — record choices, transaction sizes, abort decisions,
// the fault's hit number, torn-write shapes — derives from Seed, so a
// failure replays from its printed seed. (Goroutine interleaving between
// the writer and the checkpointer can still vary between runs; the
// equivalence assertions are interleaving-independent.)
type CrashScenario struct {
	Algorithm mmdb.Algorithm
	// Point names the crash point to arm (see internal/faultfs).
	Point faultfs.Point
	// Kind is the fault to inject at Point.
	Kind faultfs.Kind
	// Seed drives every pseudo-random choice in the run.
	Seed int64

	// Dir is the database directory (required; the caller owns cleanup).
	Dir string

	// Geometry. Zero values default to 256 records × 256 bytes, 16-record
	// segments — small enough that a checkpoint is a few segment writes.
	Records      int
	RecordBytes  int
	SegmentBytes int

	// Txns is the workload length (default 150). CkptEvery starts a
	// checkpoint every that many transactions (default 12). AbortEvery
	// deliberately aborts every that-many-th transaction (default 7).
	Txns       int
	CkptEvery  int
	AbortEvery int

	// Parallelism is the checkpoint worker-pool width and the recovery
	// worker count (default 1: one worker, the paper's serial
	// checkpointer, so the base matrix is unchanged). With N > 1, per-worker crash points
	// "checkpoint.segment.worker<i>" become meaningful.
	Parallelism int
}

// CrashReport describes one harness run, successful or not.
type CrashReport struct {
	Scenario CrashScenario
	// Fired lists the injector rules that triggered.
	Fired []faultfs.Fired
	// Crashed reports whether the injected fault halted the system (false
	// for ErrIO cells, which must survive without crashing).
	Crashed bool
	// Acked counts transactions whose Commit returned nil; InDoubt counts
	// transactions whose Commit returned ErrCommitInDoubt and that were
	// still unresolved when the run ended (0 or 1).
	Acked   int
	InDoubt int
	// RecoveredWithInDoubt reports whether the recovered state included
	// the in-doubt transaction (its commit record reached the durable
	// log) or not. Meaningless when InDoubt is 0.
	RecoveredWithInDoubt bool
	// Recovery is the engine's recovery report.
	Recovery *mmdb.RecoveryReport
}

func (s CrashScenario) withDefaults() CrashScenario {
	if s.Records == 0 {
		s.Records = 256
	}
	if s.RecordBytes == 0 {
		// Large enough that a multi-write commit flush spans log sectors,
		// so torn writes can persist a non-empty prefix.
		s.RecordBytes = 256
	}
	if s.SegmentBytes == 0 {
		s.SegmentBytes = 16 * s.RecordBytes
	}
	if s.Txns == 0 {
		s.Txns = 150
	}
	if s.CkptEvery == 0 {
		s.CkptEvery = 12
	}
	if s.AbortEvery == 0 {
		s.AbortEvery = 7
	}
	if s.Parallelism == 0 {
		s.Parallelism = 1
	}
	return s
}

// minHit is the first hit of a point that occurs after Open finishes:
// opening a fresh database itself writes the log header (wal.write) and
// the initial metadata (backup.meta.write + rename), and crashing those
// is the separate genesis test, not the steady-state matrix.
func minHit(p faultfs.Point) uint64 {
	switch p {
	case "wal.write", "backup.meta.write", "backup.meta.rename":
		return 2
	default:
		return 1
	}
}

// hitSpread is the range above minHit from which the armed hit number is
// drawn, sized so the fault lands within the default workload for every
// point (points hit once per checkpoint get a small spread; points hit
// per transaction get a larger one).
func hitSpread(p faultfs.Point) uint64 {
	switch p {
	case "wal.write", "wal.sync":
		return 30
	case "backup.write", "checkpoint.segment":
		return 8
	default:
		if strings.HasPrefix(string(p), string(faultfs.PointCheckpointSeg)+".worker") {
			// One worker of a pool of N sees roughly 1/N of the segment
			// hits, so keep the armed hit early enough to land.
			return 4
		}
		return 3
	}
}

// injectedStop reports an error caused by the injected system halt.
func injectedStop(err error) bool {
	return errors.Is(err, faultfs.ErrInjectedCrash) || errors.Is(err, mmdb.ErrStopped)
}

// txnWrites returns the deterministic write set of transaction i: record
// IDs and values derived from the shared PRNG.
func txnWrites(rng *rand.Rand, s CrashScenario, i int) map[uint64][]byte {
	n := 1 + rng.Intn(4)
	w := make(map[uint64][]byte, n)
	for k := 0; k < n; k++ {
		rid := uint64(rng.Intn(s.Records))
		val := make([]byte, s.RecordBytes)
		binary.LittleEndian.PutUint64(val, uint64(i)<<16|uint64(k))
		binary.LittleEndian.PutUint64(val[8:], rng.Uint64())
		w[rid] = val
	}
	return w
}

// RunCrash executes one crash-matrix cell and verifies:
//
//  1. Acknowledged transactions survive recovery and unacknowledged ones
//     never appear: the recovered database equals the model state of all
//     acked transactions, plus at most the single in-doubt transaction
//     whose Commit returned ErrCommitInDoubt at the crash.
//  2. The ping-pong invariant: at every crash point, the most recent
//     complete backup copy passes full checksum verification (or no
//     checkpoint completed yet and recovery runs from the log alone).
//  3. The recovered engine is live: it runs transactions and a checkpoint.
//
// It returns a report and the first violated invariant as an error.
func RunCrash(s CrashScenario) (*CrashReport, error) {
	s = s.withDefaults()
	if s.Dir == "" {
		return nil, errors.New("testbed: CrashScenario.Dir is required")
	}
	rep := &CrashReport{Scenario: s}
	rng := rand.New(rand.NewSource(s.Seed)) //nolint:gosec // deterministic replay is the point

	inj := faultfs.New(s.Seed)
	stable := s.Algorithm == mmdb.FastFuzzy
	if stable {
		// FASTFUZZY's correctness rests on the stable log tail (stable
		// RAM survives the crash); wal.* faults are not meaningful for it.
		inj.ExemptOnHalt(faultfs.ClassLog)
	}
	inj.Arm(faultfs.Rule{
		Point: s.Point,
		Kind:  s.Kind,
		AtHit: minHit(s.Point) + uint64(rng.Int63n(int64(hitSpread(s.Point)))),
	})

	cfg := mmdb.Config{
		Dir:                   s.Dir,
		NumRecords:            s.Records,
		RecordBytes:           s.RecordBytes,
		SegmentBytes:          s.SegmentBytes,
		Algorithm:             s.Algorithm,
		StableLogTail:         stable,
		SyncCommit:            true,
		SyncOnFlush:           s.Point == "wal.sync" || s.Point == "backup.sync",
		CheckpointParallelism: s.Parallelism,
		RecoveryParallelism:   s.Parallelism,
		FS:                    inj.FS(nil),
		CheckpointSegmentHook: func(_ uint64, worker, _ int) error {
			// The generic point counts every secured segment; the
			// per-worker point lets a scenario crash inside one specific
			// worker of the pool.
			if err := inj.Hook(faultfs.PointCheckpointSeg); err != nil {
				return err
			}
			return inj.Hook(faultfs.PointCheckpointSegWorker(worker))
		},
	}
	db, err := mmdb.Open(cfg)
	if err != nil {
		return rep, fmt.Errorf("testbed: open: %w", err)
	}

	// The oracle: committed values by record ID. pendingInDoubt holds the
	// write set of the one transaction whose commit durability is unknown;
	// a later acknowledged commit resolves it as durable (the log is
	// sequential: a later flushed LSN covers the earlier commit record).
	model := make(map[uint64][]byte)
	var pendingInDoubt map[uint64][]byte

	ckptDone := make(chan error, 1)
	ckptRunning := false
	drainCkpt := func() error {
		if !ckptRunning {
			return nil
		}
		ckptRunning = false
		return <-ckptDone
	}
	// Every early return below must still join an in-flight checkpoint:
	// the failure paths call db.Crash() first, which aborts it promptly,
	// and the buffered ckptDone guarantees the drain cannot hang.
	defer func() { _ = drainCkpt() }()

workload:
	for i := 0; i < s.Txns; i++ {
		if inj.Halted() {
			break
		}
		if i%s.CkptEvery == s.CkptEvery-1 {
			if err := drainCkpt(); err != nil && !injectedStop(err) && !errors.Is(err, faultfs.ErrInjectedIO) {
				_ = db.Crash() //nolint:errcheckwal // best-effort teardown on a failure path; the scenario error takes precedence
				return rep, fmt.Errorf("testbed: checkpoint failed (seed %d): %w", s.Seed, err)
			}
			ckptRunning = true
			// goleak:joins drainCkpt receives on ckptDone at the next checkpoint boundary and via the deferred drain above
			go func() {
				_, cerr := db.Checkpoint()
				ckptDone <- cerr
			}()
		}
		writes := txnWrites(rng, s, i)
		abort := i%s.AbortEvery == s.AbortEvery-1

		// Retry loop for two-color restarts and deadlocks; anything else
		// ends the transaction (and possibly the run).
		const maxAttempts = 10
		for attempt := 0; attempt < maxAttempts; attempt++ {
			tx, err := db.Begin()
			if err != nil {
				if injectedStop(err) {
					break workload
				}
				_ = db.Crash() //nolint:errcheckwal // best-effort teardown on a failure path; the scenario error takes precedence
				return rep, fmt.Errorf("testbed: begin txn %d (seed %d): %w", i, s.Seed, err)
			}
			werr := error(nil)
			for rid, val := range writes {
				if werr = tx.Write(rid, val); werr != nil {
					break
				}
			}
			if werr != nil {
				if errors.Is(werr, mmdb.ErrCheckpointConflict) || errors.Is(werr, mmdb.ErrDeadlock) {
					continue // the engine already aborted the txn; retry
				}
				if injectedStop(werr) {
					break workload
				}
				// A transient injected I/O error aborts this transaction;
				// it stays out of the oracle.
				tx.Abort()
				break
			}
			if abort {
				tx.Abort()
				break
			}
			cerr := tx.Commit()
			switch {
			case cerr == nil:
				// The ack also confirms any earlier in-doubt commit.
				for rid, val := range pendingInDoubt {
					model[rid] = val
				}
				pendingInDoubt = nil
				for rid, val := range writes {
					model[rid] = val
				}
				rep.Acked++
			case errors.Is(cerr, mmdb.ErrCommitInDoubt):
				if pendingInDoubt != nil {
					_ = db.Crash() //nolint:errcheckwal // best-effort teardown on a failure path; the scenario error takes precedence
					return rep, fmt.Errorf("testbed: two unresolved in-doubt txns (seed %d)", s.Seed)
				}
				pendingInDoubt = writes
				if injectedStop(cerr) {
					break workload
				}
			case errors.Is(cerr, mmdb.ErrCheckpointConflict), errors.Is(cerr, mmdb.ErrDeadlock):
				continue
			case injectedStop(cerr):
				break workload
			default:
				_ = db.Crash() //nolint:errcheckwal // best-effort teardown on a failure path; the scenario error takes precedence
				return rep, fmt.Errorf("testbed: commit txn %d (seed %d): %w", i, s.Seed, cerr)
			}
			break
		}
	}
	_ = drainCkpt() //nolint:errcheckwal // the run is over; crash errors are expected

	rep.Fired = inj.FiredRules()
	rep.Crashed = inj.Halted()
	if pendingInDoubt != nil {
		rep.InDoubt = 1
	}

	if s.Kind == faultfs.ErrIO {
		// Transient-error cells must not crash; the engine shuts down
		// cleanly and everything appended — including any unresolved
		// in-doubt commit — is durable.
		if rep.Crashed {
			return rep, fmt.Errorf("testbed: ErrIO fault halted the system (seed %d)", s.Seed)
		}
		if len(rep.Fired) == 0 {
			return rep, fmt.Errorf("testbed: armed ErrIO rule never fired (seed %d)", s.Seed)
		}
		for rid, val := range pendingInDoubt {
			model[rid] = val
		}
		pendingInDoubt = nil
		if err := db.Close(); err != nil {
			return rep, fmt.Errorf("testbed: close after ErrIO (seed %d): %w", s.Seed, err)
		}
	} else {
		if !rep.Crashed {
			return rep, fmt.Errorf("testbed: armed %v rule at %q never fired in %d txns (seed %d)",
				s.Kind, s.Point, s.Txns, s.Seed)
		}
		// Fail-stop: the crashed process abandons the machine. Crash()
		// errors are expected — the halted filesystem refuses the
		// shutdown truncate, exactly as a power loss would.
		_ = db.Crash() //nolint:errcheckwal // see above
	}

	// Ping-pong invariant: whatever instant the crash hit, the most
	// recent complete backup copy must pass full checksum verification.
	if err := verifyPingPong(s); err != nil {
		return rep, fmt.Errorf("testbed: ping-pong invariant (seed %d): %w", s.Seed, err)
	}

	// Recover on a pristine filesystem (the new incarnation's disk works).
	rcfg := cfg
	rcfg.FS = nil
	rcfg.CheckpointSegmentHook = nil
	rcfg.SyncOnFlush = false
	rdb, rrep, err := mmdb.Recover(rcfg)
	if err != nil {
		return rep, fmt.Errorf("testbed: recover (seed %d): %w", s.Seed, err)
	}
	rep.Recovery = rrep
	defer rdb.Close() //nolint:errcheckwal // verification errors take precedence

	// Equivalence: the recovered state must equal the acked model, or the
	// acked model plus the whole in-doubt transaction — never a mixture,
	// and never anything else.
	withDoubt := model
	if pendingInDoubt != nil {
		withDoubt = make(map[uint64][]byte, len(model)+len(pendingInDoubt))
		for rid, val := range model {
			withDoubt[rid] = val
		}
		for rid, val := range pendingInDoubt {
			withDoubt[rid] = val
		}
	}
	mismA, err := diffState(rdb, s, model)
	if err != nil {
		return rep, err
	}
	mismB := mismA
	if pendingInDoubt != nil {
		if mismB, err = diffState(rdb, s, withDoubt); err != nil {
			return rep, err
		}
	}
	if mismA != "" && mismB != "" {
		return rep, fmt.Errorf(
			"testbed: recovered state matches neither oracle (seed %d):\n without in-doubt: %s\n with in-doubt: %s",
			s.Seed, mismA, mismB)
	}
	rep.RecoveredWithInDoubt = pendingInDoubt != nil && mismA != ""

	// Liveness: the recovered engine accepts work and checkpoints.
	if err := rdb.Exec(func(tx *mmdb.Txn) error {
		return tx.Write(0, []byte("post-recovery"))
	}); err != nil {
		return rep, fmt.Errorf("testbed: post-recovery txn (seed %d): %w", s.Seed, err)
	}
	if _, err := rdb.Checkpoint(); err != nil {
		return rep, fmt.Errorf("testbed: post-recovery checkpoint (seed %d): %w", s.Seed, err)
	}
	return rep, nil
}

// verifyPingPong opens the backup store directly and checks that either no
// checkpoint has completed, or the latest complete copy verifies in full.
func verifyPingPong(s CrashScenario) error {
	bs, err := backup.Open(s.Dir, (s.Records*s.RecordBytes+s.SegmentBytes-1)/s.SegmentBytes, s.SegmentBytes)
	if err != nil {
		return err
	}
	defer bs.Close() //nolint:errcheckwal // read-only verification
	copyIdx, info, err := bs.Latest()
	if errors.Is(err, backup.ErrNoCheckpoint) {
		return nil // no complete checkpoint yet: recovery runs from the log
	}
	if err != nil {
		return err
	}
	if _, err := bs.Verify(copyIdx); err != nil {
		return fmt.Errorf("latest complete copy %d (checkpoint %d) failed verification: %w", copyIdx, info.ID, err)
	}
	return nil
}

// diffState compares the recovered database against want and returns a
// description of the first mismatch ("" on equality).
func diffState(db *mmdb.DB, s CrashScenario, want map[uint64][]byte) (string, error) {
	zero := make([]byte, s.RecordBytes)
	for rid := uint64(0); rid < uint64(s.Records); rid++ {
		got, err := db.ReadRecord(rid)
		if err != nil {
			return "", fmt.Errorf("testbed: read recovered record %d: %w", rid, err)
		}
		expect, ok := want[rid]
		if !ok {
			expect = zero
		}
		if !bytes.Equal(got, expect) {
			return fmt.Sprintf("record %d: got %x, want %x", rid, got[:8], expect[:8]), nil
		}
	}
	return "", nil
}
