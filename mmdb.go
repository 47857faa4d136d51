// Package mmdb is a memory-resident database with asynchronous
// checkpointing, reproducing Kenneth Salem and Hector Garcia-Molina,
// "Checkpointing Memory-Resident Databases" (Princeton CS-TR-126-87 /
// ICDE 1989).
//
// The database holds fixed-size records entirely in main memory; for
// crash recovery it maintains a redo-only log and two ping-pong backup
// copies on disk, updated continuously by one of eight checkpoint
// algorithms: the paper's six plus two consistent-snapshot extensions.
//
//	FUZZYCOPY  fuzzy checkpoints through an I/O buffer with LSN checks
//	FASTFUZZY  direct fuzzy flushes (requires a stable log tail)
//	2CFLUSH    Pu's black/white locking, flush while locked
//	2CCOPY     Pu's black/white locking, copy then flush
//	COUFLUSH   copy-on-update snapshots, flush while latched
//	COUCOPY    copy-on-update snapshots, copy then flush
//	ZIGZAG     two database images, first writer flips a segment's image
//	HOURGLASS  copy-on-update through a bounded window of W buffers
//
// Typical use:
//
//	db, err := mmdb.Open(mmdb.Config{
//		Dir:         dir,
//		NumRecords:  1 << 20,
//		RecordBytes: 128,
//		Algorithm:   mmdb.COUCopy,
//	})
//	...
//	err = db.Exec(func(tx *mmdb.Txn) error {
//		v, err := tx.Read(42)
//		if err != nil {
//			return err
//		}
//		return tx.Write(42, mutate(v))
//	})
//
// After a crash, mmdb.Recover (or mmdb.OpenOrRecover) rebuilds the
// in-memory database from the newest complete backup copy plus the log.
//
// The companion packages mmdb/analytic and mmdb/sim implement the paper's
// analytic performance model and a discrete-event simulator; see DESIGN.md
// and EXPERIMENTS.md for the reproduced figures.
package mmdb

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"mmdb/analytic"
	"mmdb/internal/engine"
	"mmdb/internal/obs"
)

// Errors surfaced by the database. ErrCheckpointConflict aborts a
// transaction that touched both colors during a two-color checkpoint; the
// transaction should simply be retried (Exec does so automatically).
var (
	ErrCheckpointConflict        = engine.ErrCheckpointConflict
	ErrTxnDone                   = engine.ErrTxnDone
	ErrStopped                   = engine.ErrStopped
	ErrDeadlock                  = engine.ErrDeadlock
	ErrExistingDatabase          = engine.ErrExistingDatabase
	ErrLogicalLoggingUnsupported = engine.ErrLogicalLoggingUnsupported
	ErrUnknownOperation          = engine.ErrUnknownOperation
	ErrCommitInDoubt             = engine.ErrCommitInDoubt
)

// Logical (operation) logging: with a copy-on-update checkpoint algorithm
// the log may carry operations instead of after images (the paper's
// Section 3.2 advantage of consistent backups). OpCode identifies an
// operation; OpFunc applies one to a record image in place.
type (
	OpCode = engine.OpCode
	OpFunc = engine.OpFunc
)

// Built-in logical operations.
const (
	// OpAdd64 adds an 8-byte two's-complement delta to the little-endian
	// uint64 at offset 0 of the record.
	OpAdd64 = engine.OpAdd64
	// OpStoreAt overwrites part of a record (operand: 2-byte offset +
	// bytes).
	OpStoreAt = engine.OpStoreAt
)

// Add64Operand encodes a delta for OpAdd64.
func Add64Operand(delta int64) []byte { return engine.Add64Operand(delta) }

// StoreAtOperand encodes an offset+bytes operand for OpStoreAt.
func StoreAtOperand(offset int, data []byte) []byte { return engine.StoreAtOperand(offset, data) }

// Stats is a snapshot of engine activity counters; see the field
// documentation in the engine package.
type Stats = engine.Stats

// CheckpointResult summarizes one completed checkpoint.
type CheckpointResult = engine.CheckpointResult

// RecoveryReport describes what crash recovery did.
type RecoveryReport = engine.RecoveryReport

// DB is an open memory-resident database.
type DB struct {
	e   *engine.Engine
	cfg Config
}

// Open creates a new database in cfg.Dir. It fails with
// ErrExistingDatabase if the directory already holds recoverable state.
func Open(cfg Config) (*DB, error) {
	p, err := cfg.engineParams()
	if err != nil {
		return nil, err
	}
	e, err := engine.Open(p)
	if err != nil {
		return nil, err
	}
	return &DB{e: e, cfg: cfg}, nil
}

// Recover rebuilds the database in cfg.Dir from its backup copies and log
// after a crash, returning the running database and a recovery report.
// It is RecoverContext with context.Background().
func Recover(cfg Config) (*DB, *RecoveryReport, error) {
	return RecoverContext(context.Background(), cfg)
}

// RecoverContext is Recover with cancellation: ctx is observed between
// backup segments and between log records, never mid-segment or
// mid-record. A cancelled recovery returns ctx's error and leaves the
// on-disk state recoverable — re-running recovery later is always safe.
func RecoverContext(ctx context.Context, cfg Config) (*DB, *RecoveryReport, error) {
	p, err := cfg.engineParams()
	if err != nil {
		return nil, nil, err
	}
	e, rep, err := engine.RecoverContext(ctx, p)
	if err != nil {
		return nil, nil, err
	}
	return &DB{e: e, cfg: cfg}, rep, nil
}

// OpenOrRecover opens a fresh database, or recovers an existing one. The
// report is nil when a fresh database was created. It is
// OpenOrRecoverContext with context.Background().
func OpenOrRecover(cfg Config) (*DB, *RecoveryReport, error) {
	return OpenOrRecoverContext(context.Background(), cfg)
}

// OpenOrRecoverContext is OpenOrRecover with cancellation of the
// recovery path; opening a fresh database is quick and not cancellable.
func OpenOrRecoverContext(ctx context.Context, cfg Config) (*DB, *RecoveryReport, error) {
	db, err := Open(cfg)
	if err == nil {
		return db, nil, nil
	}
	if !errors.Is(err, ErrExistingDatabase) {
		return nil, nil, err
	}
	return RecoverContext(ctx, cfg)
}

// Begin starts a transaction. The returned Txn must be finished with
// Commit or Abort and used from a single goroutine.
func (db *DB) Begin() (*Txn, error) {
	tx, err := db.e.Begin()
	if err != nil {
		return nil, err
	}
	return &Txn{inner: tx}, nil
}

// Exec runs fn in a transaction, committing on nil return and retrying
// automatically when a checkpoint conflict or deadlock timeout aborts it.
// It is ExecContext with context.Background().
func (db *DB) Exec(fn func(tx *Txn) error) error {
	return db.ExecContext(context.Background(), fn)
}

// ExecContext is Exec with cancellation: ctx is observed before the first
// attempt and between automatic retries, so a transaction restarted
// indefinitely by checkpoint conflicts or deadlock timeouts can be
// abandoned. An attempt already executing is never interrupted mid-flight.
func (db *DB) ExecContext(ctx context.Context, fn func(tx *Txn) error) error {
	return db.e.ExecContext(ctx, func(inner *engine.Txn) error {
		return fn(&Txn{inner: inner})
	})
}

// Checkpoint runs one checkpoint to completion and returns its summary.
// Checkpoints serialize; with AutoCheckpoint enabled this queues behind
// the loop's current checkpoint. It is CheckpointContext with
// context.Background().
func (db *DB) Checkpoint() (*CheckpointResult, error) {
	return db.e.Checkpoint()
}

// CheckpointContext is Checkpoint with cancellation: ctx is observed
// between sweep batches (between segments with one worker). A cancelled checkpoint leaves the target backup copy
// incomplete — the same state a crash mid-checkpoint leaves — and
// recovery falls back to the other ping-pong copy.
func (db *DB) CheckpointContext(ctx context.Context) (*CheckpointResult, error) {
	return db.e.CheckpointContext(ctx)
}

// StartCheckpointLoop begins continuous checkpointing at the configured
// interval (back-to-back if zero).
func (db *DB) StartCheckpointLoop() { db.e.StartCheckpointLoop() }

// StopCheckpointLoop halts continuous checkpointing, waiting for an
// in-progress checkpoint.
func (db *DB) StopCheckpointLoop() { db.e.StopCheckpointLoop() }

// ExecWrite commits a single-record update as one transaction without
// the closure of Exec: begin, write, commit, with the engine recycling
// the transaction object. Retries on checkpoint conflicts and
// deadlocks, like Exec.
//
// perf:hotpath(closure-free single-record write+commit)
func (db *DB) ExecWrite(rid uint64, data []byte) error {
	return db.e.ExecWrite(rid, data)
}

// ReadRecord returns the committed value of record rid without
// transactional isolation (use a Txn for isolated reads).
func (db *DB) ReadRecord(rid uint64) ([]byte, error) {
	buf := make([]byte, db.e.RecordBytes())
	if err := db.e.ReadRecord(rid, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadRecordInto reads the committed value of record rid into dst,
// which must be at least RecordBytes long. It is ReadRecord without the
// allocation: the caller owns and reuses the buffer.
//
// perf:hotpath(allocation-free committed read into a caller buffer)
func (db *DB) ReadRecordInto(rid uint64, dst []byte) error {
	return db.e.ReadRecord(rid, dst)
}

// Stats returns a snapshot of activity counters.
func (db *DB) Stats() Stats { return db.e.Stats() }

// Observability types, re-exported from the internal obs package: the
// per-database metrics registry (atomic counters, gauges, and lock-free
// latency histograms), the spans of the flight-recorder ring, and the
// watchdog's slow-op captures.
type (
	MetricsRegistry = obs.Registry
	Span            = obs.Span
	SlowOp          = obs.SlowOp
)

// Metrics returns an http.Handler serving the database's metrics:
// Prometheus text format by default, JSON with ?format=json (add
// &spans=1 for the span ring, &slow=1 for watchdog captures), and the
// span ring as Chrome trace-event JSON with ?format=chrome (load it in
// chrome://tracing or Perfetto). Mount it on any mux, e.g.
// http.Handle("/metrics", db.Metrics()).
func (db *DB) Metrics() http.Handler {
	return obs.Handler(db.e.MetricsRegistry(), db.e.Spans(), db.e.Watchdog())
}

// Spans dumps the completed spans currently retained by the engine's
// span ring, the database's flight recorder: sampled commit trees
// (lock-wait, WAL-append, group-commit-flush, checkpoint-interference,
// two-color-restart and abort phases) plus every checkpoint tree (segment
// flushes, log compaction) and recovery tree, oldest first. Cheap enough
// to call for postmortems on a live database.
func (db *DB) Spans() []Span { return db.e.SpanEvents() }

// SlowOps returns the slow-op watchdog's retained captures — operations
// that exceeded their configured threshold, each with the offending span
// tree — oldest first, in trip order. Empty unless SlowOpCommitThreshold
// or SlowOpCheckpointThreshold is set.
func (db *DB) SlowOps() []SlowOp { return db.e.SlowOps() }

// MetricsRegistry returns the database's metrics registry. Callers may
// register their own mmdb_-prefixed metrics alongside the engine's
// (kvstore registers its operation latencies here).
func (db *DB) MetricsRegistry() *MetricsRegistry { return db.e.MetricsRegistry() }

// MeasuredCounts converts the database's activity counters into the
// analytic model's Counts, for pricing a live run in the paper's
// instructions-per-transaction metric via analytic.MeasuredOverhead.
func (db *DB) MeasuredCounts() analytic.Counts {
	st := db.Stats()
	cfg := db.cfg.withDefaults()
	return analytic.Counts{
		TxnsCommitted:      st.TxnsCommitted,
		ColorAborts:        st.ColorRestarts,
		RecordsWritten:     st.RecordsWritten,
		SegmentsFlushed:    st.SegmentsFlushed,
		LSNWaits:           st.LSNWaits,
		CheckpointerCopies: st.CheckpointerCopies,
		COUCopies:          st.COUCopies,
		ZigzagFlips:        st.ZigzagFlips,
		Checkpoints:        st.Checkpoints,
		SegmentsTotal:      uint64(db.NumSegments()),
		SegmentWords:       float64(cfg.SegmentBytes) / analytic.WordBytes,
		Algorithm:          db.cfg.Algorithm,
		Full:               db.cfg.FullCheckpoints,
		StableTail:         db.cfg.StableLogTail,
	}
}

// NumRecords returns the database's record count.
func (db *DB) NumRecords() int { return db.e.NumRecords() }

// RecordBytes returns the record size in bytes.
func (db *DB) RecordBytes() int { return db.e.RecordBytes() }

// NumSegments returns the number of checkpoint segments.
func (db *DB) NumSegments() int { return db.e.NumSegments() }

// Dir returns the database directory.
func (db *DB) Dir() string { return db.e.Dir() }

// Config returns the configuration the database was opened with.
func (db *DB) Config() Config { return db.cfg }

// Close stops checkpointing, flushes the log, and closes the files.
func (db *DB) Close() error { return db.e.Close() }

// Crash simulates a system failure: volatile state (the in-memory
// database and, without a stable tail, the unflushed log) is discarded,
// leaving only the on-disk backup copies and durable log for Recover. It
// exists for recovery testing and demonstrations.
func (db *DB) Crash() error { return db.e.Crash() }

// String implements fmt.Stringer.
func (db *DB) String() string {
	return fmt.Sprintf("mmdb.DB{%v, %d records × %dB}", db.cfg.Algorithm, db.NumRecords(), db.RecordBytes())
}

// Txn is a shadow-copy transaction: reads see committed state (plus the
// transaction's own writes); writes are buffered and installed atomically
// at Commit. Redo-only logging makes Commit durable per the configured
// commit mode.
type Txn struct {
	inner *engine.Txn
}

// ID returns the transaction identifier.
func (tx *Txn) ID() uint64 { return tx.inner.ID() }

// Read returns a copy of record rid as this transaction sees it.
func (tx *Txn) Read(rid uint64) ([]byte, error) { return tx.inner.Read(rid) }

// Write stages an update of record rid (≤ RecordBytes; shorter images are
// zero-padded on install).
func (tx *Txn) Write(rid uint64, data []byte) error { return tx.inner.Write(rid, data) }

// ApplyOp stages a logical update: the operation is applied to the
// transaction's view immediately, but the log carries only the operation
// code and operand. Requires a copy-on-update algorithm (COUFlush or
// COUCopy); other algorithms return ErrLogicalLoggingUnsupported.
func (tx *Txn) ApplyOp(rid uint64, code OpCode, operand []byte) error {
	return tx.inner.ApplyOp(rid, code, operand)
}

// Commit installs the transaction's updates and releases its locks.
func (tx *Txn) Commit() error { return tx.inner.Commit() }

// Abort abandons the transaction.
func (tx *Txn) Abort() { tx.inner.Abort() }
