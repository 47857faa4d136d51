package engine

import (
	"mmdb/internal/obs"
	"mmdb/internal/wal"
)

// engineObs bundles the engine's observability surface: one registry and
// one span ring (the flight recorder) per engine, plus the histogram
// handles the hot paths record into. It is assembled before the engine's
// components so the WAL, backup store, and lock manager receive their
// instruments at construction time; the per-subsystem handles live here
// so metric names are declared in exactly one place.
//
// Everything inside is either immutable after newEngineObs or internally
// synchronized (obs types are atomic), so engineObs needs no lock.
type engineObs struct {
	reg      *obs.Registry
	spans    *obs.SpanTracer // nil when span tracing is disabled
	watchdog *obs.Watchdog

	// Engine-owned latency histograms.
	commitH  *obs.Histogram // commit latency, Commit entry to return
	ckptH    *obs.Histogram // whole-checkpoint duration
	ckptSegH *obs.Histogram // per-segment flush (write + throttle)
	lsnWaitH *obs.Histogram // write-ahead LSN waits in the checkpointer

	// Commit latency attribution (DESIGN.md §19): per-phase histograms
	// whose in-commit members (wal_append, flush_wait, cou_copy,
	// zigzag_flip, hourglass_stall) nest inside commitH and must sum to
	// at most its total; lock_wait and restart attribute the pre-commit
	// transaction phases and are reported alongside.
	attrLockWaitH  *obs.Histogram // lock waits incurred by transactions (contended only)
	attrWALAppendH *obs.Histogram // the commit record's log append
	attrFlushWaitH *obs.Histogram // group-commit durability wait (SyncCommit)
	attrCouCopyH   *obs.Histogram // copy-on-update old-version preservation
	attrZigzagH    *obs.Histogram // zigzag live→shadow image flips
	attrHgStallH   *obs.Histogram // hourglass window-buffer stalls
	attrRestartH   *obs.Histogram // work discarded by two-color restarts

	// Checkpoint/recovery pipeline histograms (DESIGN.md §15).
	ckptWorkerH   *obs.Histogram // per-worker wall time inside one batch
	ckptBatchH    *obs.Histogram // segments handed out per batch
	recApplyH     *obs.Histogram // per-worker redo-apply wall time
	recApplyRecsH *obs.Histogram // records applied per redo worker

	// Recovery phase durations (gauges: recovery happens once per engine).
	recBackupLoad *obs.Gauge
	recLogScan    *obs.Gauge
	recRedoApply  *obs.Gauge
	recTotal      *obs.Gauge

	// Instruments handed to the substrates.
	walMetrics *wal.Metrics
	backupSegH *obs.Histogram
	lockWaitH  *obs.Histogram
}

// newEngineObs builds the registry, span tracer, watchdog, and
// every engine-level instrument. spanSample is the resolved
// Params.SpanSampleEvery (negative disables the span tracer; the
// attribution histograms stay). Counter funcs over the engine's activity
// counters are added later by bind, once the engine struct exists.
func newEngineObs(spanSample int) *engineObs {
	reg := obs.NewRegistry()
	var spans *obs.SpanTracer
	if spanSample >= 0 {
		spans = obs.NewSpanTracer(0, spanSample)
	}
	eo := &engineObs{
		reg:      reg,
		spans:    spans,
		watchdog: obs.NewWatchdog(spans),

		commitH: reg.Histogram("mmdb_engine_commit_seconds",
			"Transaction commit latency (Commit call to return).", obs.ScaleNanosToSeconds),
		ckptH: reg.Histogram("mmdb_engine_checkpoint_seconds",
			"Whole-checkpoint duration, begin marker to end marker.", obs.ScaleNanosToSeconds),
		ckptSegH: reg.Histogram("mmdb_engine_checkpoint_segment_seconds",
			"Per-segment backup flush duration, including the disk-model throttle.", obs.ScaleNanosToSeconds),
		lsnWaitH: reg.Histogram("mmdb_engine_lsn_wait_seconds",
			"Checkpointer write-ahead waits for log durability.", obs.ScaleNanosToSeconds),

		attrLockWaitH: reg.Histogram("mmdb_commit_attr_lock_wait_seconds",
			"Commit attribution: lock waits incurred by transactions (contended acquisitions only).", obs.ScaleNanosToSeconds),
		attrWALAppendH: reg.Histogram("mmdb_commit_attr_wal_append_seconds",
			"Commit attribution: the commit record's log append.", obs.ScaleNanosToSeconds),
		attrFlushWaitH: reg.Histogram("mmdb_commit_attr_flush_wait_seconds",
			"Commit attribution: synchronous-commit group-commit durability wait.", obs.ScaleNanosToSeconds),
		attrCouCopyH: reg.Histogram("mmdb_commit_attr_cou_copy_seconds",
			"Commit attribution: copy-on-update old-version preservation inside install.", obs.ScaleNanosToSeconds),
		attrZigzagH: reg.Histogram("mmdb_commit_attr_zigzag_flip_seconds",
			"Commit attribution: zigzag live-to-shadow image flips inside install.", obs.ScaleNanosToSeconds),
		attrHgStallH: reg.Histogram("mmdb_commit_attr_hourglass_stall_seconds",
			"Commit attribution: waits for a free hourglass window buffer.", obs.ScaleNanosToSeconds),
		attrRestartH: reg.Histogram("mmdb_commit_attr_restart_seconds",
			"Commit attribution: transaction work discarded by a two-color restart.", obs.ScaleNanosToSeconds),

		ckptWorkerH: reg.Histogram("mmdb_ckpt_worker_flush_seconds",
			"Per-worker wall time spent on one segment of a checkpoint batch.", obs.ScaleNanosToSeconds),
		ckptBatchH: reg.Histogram("mmdb_ckpt_worker_batch_segments",
			"Segments handed out per checkpoint batch.", obs.ScaleNone),
		recApplyH: reg.Histogram("mmdb_recovery_apply_worker_seconds",
			"Per-worker wall time of a partitioned redo worker, from the start of the log pass to its drain.", obs.ScaleNanosToSeconds),
		recApplyRecsH: reg.Histogram("mmdb_recovery_apply_records",
			"Redo records applied per partitioned apply worker.", obs.ScaleNone),

		recBackupLoad: reg.Gauge("mmdb_recovery_backup_load_seconds",
			"Recovery phase: reading the backup copy into primary memory."),
		recLogScan: reg.Gauge("mmdb_recovery_log_scan_seconds",
			"Recovery phase: the one log pass (read, decode, dispatch committed updates to the redo workers)."),
		recRedoApply: reg.Gauge("mmdb_recovery_redo_apply_seconds",
			"Recovery phase: draining the redo workers after the log pass."),
		recTotal: reg.Gauge("mmdb_recovery_total_seconds",
			"Total wall-clock recovery duration."),

		walMetrics: &wal.Metrics{
			AppendSeconds: reg.Histogram("mmdb_wal_append_seconds",
				"Log append latency (encode into the tail).", obs.ScaleNanosToSeconds),
			FlushSeconds: reg.Histogram("mmdb_wal_flush_seconds",
				"Log flush latency (tail write plus optional sync).", obs.ScaleNanosToSeconds),
			FlushBatchBytes: reg.Histogram("mmdb_wal_flush_batch_bytes",
				"Bytes written per log flush (group-commit batch size).", obs.ScaleNone),
		},
		backupSegH: reg.Histogram("mmdb_backup_segment_write_seconds",
			"Backup segment image write latency.", obs.ScaleNanosToSeconds),
		lockWaitH: reg.Histogram("mmdb_lockmgr_wait_seconds",
			"Lock wait time, enqueue to grant, timeout, or deadlock refusal.", obs.ScaleNanosToSeconds),
	}
	// The commit record's append is measured inside wal.Append (where the
	// clock is already read) and lands in the attribution histogram.
	eo.walMetrics.CommitAppendSeconds = eo.attrWALAppendH
	// Runtime health rides on the same registry so GC pauses and
	// scheduler latency can be read next to checkpoint interference.
	obs.NewRuntimeHarvester(reg)
	return eo
}

// bind registers read-on-gather counters over the engine's existing
// atomic counters and substrate stats, so exposition shows them without
// double-counting the hot-path increments.
func (eo *engineObs) bind(e *Engine) {
	reg := eo.reg
	c := &e.ctr
	reg.CounterFunc("mmdb_engine_txns_begun_total", "Transactions begun.", c.txnsBegun.Load)
	reg.CounterFunc("mmdb_engine_txns_committed_total", "Transactions committed.", c.txnsCommitted.Load)
	reg.CounterFunc("mmdb_engine_txns_aborted_total", "Transactions aborted (including restarts).", c.txnsAborted.Load)
	reg.CounterFunc("mmdb_engine_color_restarts_total", "Aborts forced by the two-color rule.", c.colorRestarts.Load)
	reg.CounterFunc("mmdb_engine_lock_aborts_total", "Aborts caused by lock timeouts.", c.lockAborts.Load)
	reg.CounterFunc("mmdb_engine_records_read_total", "Records read by transactions.", c.recordsRead.Load)
	reg.CounterFunc("mmdb_engine_records_written_total", "Records written by transactions.", c.recordsWritten.Load)
	reg.CounterFunc("mmdb_engine_checkpoints_total", "Checkpoints completed.", c.checkpoints.Load)
	reg.CounterFunc("mmdb_engine_checkpoint_segments_flushed_total", "Segments flushed to the backup.", c.segmentsFlushed.Load)
	reg.CounterFunc("mmdb_engine_checkpoint_segments_skipped_total", "Clean segments skipped by partial checkpoints.", c.segmentsSkipped.Load)
	reg.CounterFunc("mmdb_engine_checkpoint_flushed_bytes_total", "Bytes flushed to the backup.", c.bytesFlushed.Load)
	reg.CounterFunc("mmdb_engine_cou_copies_total", "Copy-on-update old-version copies.", c.couCopies.Load)
	reg.CounterFunc("mmdb_engine_cou_copy_bytes_total", "Bytes copied for copy-on-update old versions.", c.couCopyBytes.Load)
	reg.GaugeFunc("mmdb_engine_cou_live_old", "Old copies currently held.",
		func() float64 { return float64(c.couLive.Load()) })
	reg.CounterFunc("mmdb_engine_zigzag_flips_total", "Zigzag Data/Shadow image flips made by updaters.", c.zigzagFlips.Load)
	reg.CounterFunc("mmdb_engine_zigzag_flip_bytes_total", "Bytes copied by zigzag image flips.", c.zigzagFlipBytes.Load)
	reg.CounterFunc("mmdb_engine_hourglass_waits_total", "Writer waits for an hourglass window buffer.", c.hgWaits.Load)
	reg.CounterFunc("mmdb_engine_lsn_waits_total", "Checkpointer LSN durability waits.", c.lsnWaits.Load)
	reg.CounterFunc("mmdb_engine_log_compactions_total", "Log head compactions.", c.compactions.Load)
	reg.CounterFunc("mmdb_engine_log_compacted_bytes_total", "Log bytes dropped by compaction.", c.compactBytes.Load)

	locks := e.locks
	reg.CounterFunc("mmdb_lockmgr_acquires_total", "Lock acquisitions.",
		func() uint64 { return locks.Stats().Acquires })
	reg.CounterFunc("mmdb_lockmgr_releases_total", "Lock releases.",
		func() uint64 { return locks.Stats().Releases })
	reg.CounterFunc("mmdb_lockmgr_waits_total", "Lock requests that waited.",
		func() uint64 { return locks.Stats().Waits })
	reg.CounterFunc("mmdb_lockmgr_timeouts_total", "Lock waits that timed out.",
		func() uint64 { return locks.Stats().Timeouts })

	lg := e.log
	reg.CounterFunc("mmdb_wal_appends_total", "Log records appended.",
		func() uint64 { return lg.Stats().Appends })
	reg.CounterFunc("mmdb_wal_flushes_total", "Log tail flushes.",
		func() uint64 { return lg.Stats().Flushes })
	reg.CounterFunc("mmdb_wal_flushed_bytes_total", "Log bytes flushed.",
		func() uint64 { return lg.Stats().BytesFlushed })
	reg.GaugeFunc("mmdb_wal_durable_lsn", "Durability watermark LSN.",
		func() float64 { return float64(lg.DurableLSN()) })
	reg.GaugeFunc("mmdb_wal_end_lsn", "Logical end-of-log LSN.",
		func() float64 { return float64(lg.NextLSN()) })
}

// MetricsRegistry returns the engine's metrics registry. Callers may
// register additional metrics (kvstore registers its op latencies here).
func (e *Engine) MetricsRegistry() *obs.Registry { return e.eo.reg }

// Spans returns the engine's span tracer (nil when disabled).
func (e *Engine) Spans() *obs.SpanTracer { return e.eo.spans }

// SpanEvents dumps the currently retained completed spans in order.
func (e *Engine) SpanEvents() []obs.Span { return e.eo.spans.Dump() }

// Watchdog returns the engine's slow-op watchdog.
func (e *Engine) Watchdog() *obs.Watchdog { return e.eo.watchdog }

// SlowOps returns the watchdog's retained slow-op dumps, oldest first.
func (e *Engine) SlowOps() []obs.SlowOp { return e.eo.watchdog.SlowOps() }
