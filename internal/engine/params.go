package engine

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"mmdb/analytic"
	"mmdb/internal/backup"
	"mmdb/internal/faultfs"
	"mmdb/internal/storage"
)

// throttleDelay returns the wall-clock pacing delay for one flushed
// segment of segBytes at the given speedup: the paper's single-device
// service time (Table 2b, analytic.Params.SegmentIOTime), T_seek +
// T_trans·S_seg, divided by speedup. One worker is one synchronous disk
// stream, so K checkpoint workers are K streams; the paper's
// fully-overlapped bank of N_bdisks disks is the N_bdisks-stream case.
func throttleDelay(segBytes int, speedup float64) time.Duration {
	dp := analytic.DefaultParams()
	dp.SSeg = float64(segBytes / analytic.WordBytes)
	return time.Duration(math.Round(dp.SegmentIOTime() / speedup * float64(time.Second)))
}

// Params configures an Engine.
type Params struct {
	// Dir is the directory holding the log file and the two backup
	// database copies.
	Dir string

	// Storage is the database geometry.
	Storage storage.Config

	// Algorithm selects the checkpoint algorithm.
	Algorithm Algorithm

	// Full selects full checkpoints: every segment is written each
	// checkpoint. The default is partial checkpoints, which flush only the
	// segments dirtied since the previous checkpoint of the same ping-pong
	// copy (see DESIGN.md §6.1).
	Full bool

	// StableTail simulates stable RAM holding the log tail (Section 4).
	// Required by FASTFUZZY.
	StableTail bool

	// SyncCommit makes Commit wait until the transaction's log records are
	// durable. The paper's MMDBMS avoids synchronous commit I/O; the
	// default is asynchronous group commit.
	SyncCommit bool

	// LogFlushInterval is the group-commit period for the background log
	// flusher. Zero disables it (the tail is then flushed by checkpointer
	// LSN waits, synchronous commits, and Close).
	LogFlushInterval time.Duration

	// CheckpointInterval is the paper's checkpoint duration: the time from
	// the beginning of one checkpoint to the beginning of the next when
	// the engine checkpoints continuously (Run). Zero means back-to-back,
	// as fast as possible.
	CheckpointInterval time.Duration

	// AutoCheckpoint starts the continuous checkpoint loop on Open.
	AutoCheckpoint bool

	// CheckpointDirtyFraction, when in (0,1], makes the checkpoint loop
	// cut its wait short as soon as that fraction of segments is dirty
	// for the next target copy — bounding both recovery log span (via
	// CheckpointInterval) and checkpoint size (via the dirty threshold).
	CheckpointDirtyFraction float64

	// LockTimeout bounds lock waits; expiry aborts the waiting transaction
	// (deadlock resolution). Zero uses DefaultLockTimeout.
	LockTimeout time.Duration

	// SyncOnFlush fsyncs the log on every flush. Off by default: the
	// in-process crash simulation defines durability by the flushed
	// watermark, and the paper's engine would batch syncs anyway.
	SyncOnFlush bool

	// Operations registers custom logical operations (codes above the
	// built-in range) for Txn.ApplyOp. Recovery needs the same map to
	// replay logical records, so pass it to Recover as well.
	Operations map[OpCode]OpFunc

	// ThrottleSpeedup, when non-zero, paces checkpoint segment writes with
	// the paper's disk model: each flushed segment costs the worker that
	// flushes it one device service time divided by ThrottleSpeedup (see
	// throttleDelay). It lets a laptop-scale engine reproduce the paper's
	// checkpoint-duration arithmetic at a manageable time scale; 1 runs
	// in real modeled time. Zero means unthrottled; otherwise it must be
	// at least 1.
	ThrottleSpeedup float64

	// DisableLogCompaction keeps the full log on disk. By default the
	// engine compacts the log head after each checkpoint, dropping records
	// older than any complete checkpoint's redo-scan start (no recovery
	// can need them).
	DisableLogCompaction bool

	// CheckpointParallelism is the number of concurrent segment copy/flush
	// workers a checkpoint sweep fans out to. Zero resolves to
	// min(GOMAXPROCS, 8); 1 runs every batch of the one sweep inline,
	// one segment at a time. The per-segment protocol of each algorithm
	// is preserved; only the write-ahead LSN wait and the ping-pong
	// metadata commit are shared barriers (see DESIGN.md §15).
	CheckpointParallelism int

	// RecoveryParallelism is the number of concurrent backup-load stripe
	// readers and partitioned redo-apply workers recovery uses. Zero
	// resolves to min(GOMAXPROCS, 8); 1 loads one stripe and applies redo
	// in one worker. Recovered
	// images are byte-identical at any setting: stripes load disjoint
	// segments and redo records are routed by segment range, so per-record
	// log order is preserved where it matters.
	RecoveryParallelism int

	// HourglassWindow is the HOURGLASS old-copy window W: the number of
	// preallocated segment buffers writers may hold old versions in at
	// once. A writer needing a buffer when all W are in use waits for
	// the checkpointer to free one. Zero resolves to
	// analytic.DefaultHourglassWindowSegments; ignored by every other
	// algorithm.
	HourglassWindow int

	// SegmentHook, if set, runs after the checkpointer finishes each
	// segment; returning an error aborts the checkpoint with that error.
	// worker is the index of the sweep worker that processed the segment
	// (always 0 with one worker). It exists for fault injection in tests
	// (e.g., crashing mid-checkpoint to exercise ping-pong recovery).
	SegmentHook func(checkpointID uint64, worker, segIdx int) error

	// FS, when non-nil, is the filesystem the log and backup copies are
	// written through. Tests inject a faultfs.Injector here to crash the
	// engine at named points on the write path; nil means the OS directly.
	FS faultfs.FS

	// SpanSampleEvery samples the latency-attribution span tracer: one in
	// every SpanSampleEvery transactions gets a full commit span tree
	// (lock waits, WAL appends, group-commit flush, checkpoint
	// interference). Zero resolves to DefaultSpanSample; 1 traces every
	// transaction; negative disables span tracing. Checkpoint and
	// recovery spans are always recorded (they are rare). Attribution
	// histograms (mmdb_commit_attr_*) are unaffected by sampling.
	SpanSampleEvery int

	// SlowOpCommitThreshold arms the slow-op watchdog for commits: a
	// commit slower than this captures a torn-free flight-recorder dump
	// of the offending span tree (DB.SlowOps / ?slow=1). Zero disables.
	SlowOpCommitThreshold time.Duration

	// SlowOpCheckpointThreshold arms the watchdog for whole checkpoints.
	// Zero disables.
	SlowOpCheckpointThreshold time.Duration

	// OpenBackup, when non-nil, supplies the backup store the engine
	// checkpoints into, replacing the default file-backed store under
	// Dir. Recovery must be given the same hook so it reopens the same
	// backend. The returned store must honor the backup.Store contract
	// (ping-pong copies, durable Begin/Finish flags, torn-write
	// detection); its data must survive Close for recovery to work.
	OpenBackup func(dir string, numSegments, segmentBytes int) (backup.Store, error)

	// CheckpointStagger delays the continuous checkpoint loop's first
	// checkpoint after StartCheckpointLoop. Shards use it to phase-shift
	// otherwise identical schedules (shardID*interval/N) so aggregate
	// backup bandwidth stays bounded instead of spiking N-wide.
	CheckpointStagger time.Duration
}

// DefaultSpanSample is the span-tracer sampling rate used when
// Params.SpanSampleEvery is zero: one traced transaction in every 8.
const DefaultSpanSample = 8

// DefaultLockTimeout is the lock-wait bound used when Params.LockTimeout
// is zero.
const DefaultLockTimeout = 2 * time.Second

// DefaultParallelism resolves the zero value of the parallelism knobs:
// one worker per CPU, capped at 8 (beyond that the backup device, not the
// CPU, is the bottleneck).
func DefaultParallelism() int {
	p := runtime.GOMAXPROCS(0)
	if p > 8 {
		p = 8
	}
	if p < 1 {
		p = 1
	}
	return p
}

// openBackupStore opens the engine's backup store through the
// OpenBackup hook, defaulting to the file-backed store under Dir.
func (p Params) openBackupStore(numSegments int) (backup.Store, error) {
	if p.OpenBackup != nil {
		return p.OpenBackup(p.Dir, numSegments, p.Storage.SegmentBytes)
	}
	return backup.OpenFS(p.FS, p.Dir, numSegments, p.Storage.SegmentBytes)
}

// withDefaults returns p with zero values replaced by defaults.
func (p Params) withDefaults() Params {
	if p.LockTimeout == 0 {
		p.LockTimeout = DefaultLockTimeout
	}
	if p.CheckpointParallelism == 0 {
		p.CheckpointParallelism = DefaultParallelism()
	}
	if p.RecoveryParallelism == 0 {
		p.RecoveryParallelism = DefaultParallelism()
	}
	if p.HourglassWindow == 0 {
		p.HourglassWindow = analytic.DefaultHourglassWindowSegments
	}
	if p.SpanSampleEvery == 0 {
		p.SpanSampleEvery = DefaultSpanSample
	}
	return p
}

// Validate checks the parameter set for consistency.
func (p Params) Validate() error {
	if p.Dir == "" {
		return errors.New("engine: Dir must be set")
	}
	if err := p.Storage.Validate(); err != nil {
		return err
	}
	if !p.Algorithm.Valid() {
		return fmt.Errorf("engine: invalid algorithm %v", p.Algorithm)
	}
	if p.Algorithm.RequiresStableTail() && !p.StableTail {
		return fmt.Errorf("engine: %v requires StableTail (it flushes segments without LSN checks and would otherwise violate the write-ahead rule)", p.Algorithm)
	}
	if p.CheckpointInterval < 0 {
		return errors.New("engine: negative CheckpointInterval")
	}
	if p.CheckpointDirtyFraction < 0 || p.CheckpointDirtyFraction > 1 {
		return errors.New("engine: CheckpointDirtyFraction must be in [0,1]")
	}
	if p.ThrottleSpeedup != 0 && !(p.ThrottleSpeedup >= 1) {
		return fmt.Errorf("engine: ThrottleSpeedup %v, want 0 (off) or >= 1", p.ThrottleSpeedup)
	}
	if p.CheckpointParallelism < 0 {
		return fmt.Errorf("engine: negative CheckpointParallelism %d", p.CheckpointParallelism)
	}
	if p.RecoveryParallelism < 0 {
		return fmt.Errorf("engine: negative RecoveryParallelism %d", p.RecoveryParallelism)
	}
	if p.HourglassWindow < 0 {
		return fmt.Errorf("engine: negative HourglassWindow %d", p.HourglassWindow)
	}
	if p.CheckpointStagger < 0 {
		return errors.New("engine: negative CheckpointStagger")
	}
	builtin := builtinOps()
	for code, fn := range p.Operations {
		if fn == nil {
			return fmt.Errorf("engine: nil operation for code %d", code)
		}
		if _, taken := builtin[code]; taken {
			return fmt.Errorf("engine: operation code %d collides with a built-in", code)
		}
	}
	return nil
}
