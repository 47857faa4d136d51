package mmdb

import (
	"fmt"
	"path/filepath"
	"time"

	"mmdb/analytic"
	"mmdb/internal/engine"
	"mmdb/internal/faultfs"
	"mmdb/internal/storage"
)

// Algorithm selects a checkpoint algorithm; it is shared with the
// analytic model and simulator packages.
type Algorithm = analytic.Algorithm

// The eight checkpoint algorithms: the paper's six plus the ZIGZAG and
// HOURGLASS extensions (see the package documentation).
const (
	FuzzyCopy     = analytic.FuzzyCopy
	FastFuzzy     = analytic.FastFuzzy
	TwoColorFlush = analytic.TwoColorFlush
	TwoColorCopy  = analytic.TwoColorCopy
	COUFlush      = analytic.COUFlush
	COUCopy       = analytic.COUCopy
	Zigzag        = analytic.Zigzag
	Hourglass     = analytic.Hourglass
)

// Algorithms lists every algorithm in the paper's presentation order,
// followed by the two extensions. It is a copy of analytic.Algorithms, so
// a caller that reorders or overwrites it does not change what
// ParseAlgorithm accepts.
var Algorithms = append([]Algorithm(nil), analytic.Algorithms...)

// ParseAlgorithm resolves a case-insensitive paper name ("COUCOPY",
// "2cflush", ...) to an Algorithm.
func ParseAlgorithm(name string) (Algorithm, error) { return analytic.Parse(name) }

// Config describes a database. Dir, NumRecords, RecordBytes and Algorithm
// are required; everything else has sensible defaults.
type Config struct {
	// Dir is the directory holding the redo log and the two backup
	// database copies.
	Dir string

	// NumRecords is the number of fixed-size records.
	NumRecords int
	// RecordBytes is the record size (the paper's S_rec).
	RecordBytes int
	// SegmentBytes is the checkpoint transfer unit (the paper's S_seg); it
	// must be a multiple of RecordBytes. Default: 256 records per segment.
	SegmentBytes int

	// Algorithm selects the checkpoint algorithm.
	Algorithm Algorithm
	// FullCheckpoints writes every segment each checkpoint instead of only
	// those dirtied since the target copy's previous checkpoint.
	FullCheckpoints bool
	// StableLogTail simulates stable RAM holding the unflushed log: every
	// commit is durable immediately and FASTFUZZY becomes legal.
	StableLogTail bool

	// SyncCommit makes Commit wait for log durability. Default is the
	// paper's asynchronous group commit: commits return once logged in
	// memory, and durability follows within GroupCommitInterval (or at the
	// next checkpoint's write-ahead flush).
	SyncCommit bool
	// GroupCommitInterval is the background log-flush period. Zero
	// disables the background flusher.
	GroupCommitInterval time.Duration
	// SyncOnFlush fsyncs the log file on each flush.
	SyncOnFlush bool

	// CheckpointInterval is the begin-to-begin checkpoint period for the
	// checkpoint loop; zero checkpoints back-to-back.
	CheckpointInterval time.Duration
	// AutoCheckpoint starts the checkpoint loop on Open/Recover.
	AutoCheckpoint bool
	// CheckpointDirtyFraction, when in (0,1], makes the checkpoint loop
	// start early once that fraction of segments is dirty for the next
	// backup copy, bounding checkpoint size under bursty loads while
	// CheckpointInterval bounds the recovery log span.
	CheckpointDirtyFraction float64

	// LockTimeout bounds lock waits (deadlock resolution); expired waits
	// abort the transaction with ErrDeadlock.
	LockTimeout time.Duration

	// Operations registers custom logical operations for Txn.ApplyOp
	// (codes must not collide with the built-ins). Recovery replays
	// logical records, so pass the same map when reopening the database.
	Operations map[OpCode]OpFunc

	// DisableLogCompaction keeps the whole log on disk instead of dropping
	// the head no recovery can need after each checkpoint.
	DisableLogCompaction bool

	// CheckpointParallelism is the number of concurrent segment copy/flush
	// workers each checkpoint sweep fans out to. Zero resolves to
	// min(GOMAXPROCS, 8); 1 sweeps one segment at a time. Each
	// algorithm's per-segment protocol is preserved — only the write-ahead
	// LSN wait and the ping-pong metadata commit are shared barriers (see
	// DESIGN.md §15).
	CheckpointParallelism int

	// RecoveryParallelism is the number of concurrent backup-load stripe
	// readers and partitioned redo-apply workers recovery uses. Zero
	// resolves to min(GOMAXPROCS, 8); 1 uses one loader and one redo
	// worker. The recovered
	// image is byte-identical at any setting.
	RecoveryParallelism int

	// HourglassWindow is the HOURGLASS old-copy window W: the number of
	// preallocated segment buffers available to writers for old-version
	// preservation. Writers needing a buffer when all W are in use wait
	// for the checkpointer to free one. Zero resolves to the engine
	// default (4); ignored by every other algorithm.
	HourglassWindow int

	// ThrottleSpeedup, when non-zero, paces checkpoint segment writes
	// with the paper's disk model (Table 2b: 30 ms seek, 3 µs/word): each
	// flushed segment costs the worker that issues it one device service
	// time, analytic.DefaultParams().SegmentIOTime() at this segment
	// size, divided by ThrottleSpeedup. A worker is one synchronous disk
	// stream, so CheckpointParallelism K models K streams, and the
	// paper's overlapped 20-disk bank is the 20-worker case. It lets
	// experiments reproduce the paper's checkpoint-duration arithmetic on
	// local files. Zero means unthrottled; 1 runs in real modeled time;
	// any other value must be at least 1.
	ThrottleSpeedup float64

	// FS, when non-nil, is the filesystem the log and backup copies are
	// written through. Crash tests inject a faultfs.Injector here (see
	// internal/faultfs); nil means the OS directly.
	FS FS

	// CheckpointSegmentHook, if set, runs after the checkpointer finishes
	// each segment; returning an error aborts that checkpoint. worker is
	// the sweep worker that processed the segment (always 0 when
	// CheckpointParallelism is 1). It exists for fault injection (crashing
	// between segment flushes).
	CheckpointSegmentHook func(checkpointID uint64, worker, segIdx int) error

	// SpanSampleEvery samples the latency-attribution span tracer: one in
	// every SpanSampleEvery transactions records a full commit span tree
	// (lock waits, WAL append, group-commit flush, checkpoint
	// interference), exportable as a Chrome trace via ?format=chrome or
	// `mmdbctl trace`. Zero resolves to the engine default (8); 1 traces
	// every transaction; negative disables span tracing. Checkpoint and
	// recovery spans are always recorded. The mmdb_commit_attr_* phase
	// histograms are unaffected by sampling.
	SpanSampleEvery int

	// SlowOpCommitThreshold arms the slow-op watchdog: a commit slower
	// than this captures a flight-recorder dump of its span tree,
	// retrievable via DB.SlowOps or the metrics endpoint's ?slow=1. Zero
	// disables the commit watchdog.
	SlowOpCommitThreshold time.Duration

	// SlowOpCheckpointThreshold is the watchdog threshold for whole
	// checkpoints. Zero disables the checkpoint watchdog.
	SlowOpCheckpointThreshold time.Duration

	// Shards hash-partitions the keyspace across this many independent
	// engines, each with its own subdirectory (shard-000, shard-001, ...),
	// WAL, lock manager, and staggered checkpoint loop. 0 and 1 both mean
	// a single unsharded engine with the exact on-disk layout of earlier
	// versions (no subdirectory). Values above 1 are driven by the shard
	// router (internal/shard, served by cmd/mmdbd); DB.Open itself runs
	// one engine and rejects them. NumRecords must divide evenly across
	// the shards. Derive each shard's engine config with ShardConfig.
	Shards int

	// CheckpointStagger delays the checkpoint loop's first checkpoint,
	// phase-shifting otherwise identical schedules. The shard router
	// derives it per shard as shard*CheckpointInterval/Shards so N
	// shards hit the backup device at evenly spaced offsets;
	// single-engine configs rarely set it.
	CheckpointStagger time.Duration
}

// FS is the filesystem abstraction the storage layer writes through,
// re-exported for fault-injection tests (see internal/faultfs).
type FS = faultfs.FS

// DefaultRecordsPerSegment sizes segments when SegmentBytes is zero.
const DefaultRecordsPerSegment = 256

// withDefaults fills defaulted fields.
func (c Config) withDefaults() Config {
	if c.SegmentBytes == 0 {
		c.SegmentBytes = c.RecordBytes * DefaultRecordsPerSegment
	}
	return c
}

// Validate checks the configuration without opening anything: geometry,
// algorithm (including the FASTFUZZY stable-tail requirement), intervals,
// parallelism, throttle, sharding, and operation registrations. Open and
// Recover run the same checks; calling Validate first lets callers fail
// fast on assembled configs before touching the directory.
func (c Config) Validate() error {
	if c.Shards > 1 {
		// A sharded config is valid iff each derived per-shard config
		// is; shard 0 stands for all of them (they differ only in Dir
		// and stagger).
		sc, err := c.ShardConfig(0)
		if err != nil {
			return err
		}
		_, err = sc.engineParams()
		return err
	}
	_, err := c.engineParams()
	return err
}

// ShardDirName is the subdirectory of Config.Dir holding one shard's
// engine state (log + backup copies) when Shards > 1.
func ShardDirName(shard int) string { return fmt.Sprintf("shard-%03d", shard) }

// ShardConfig derives the single-engine configuration of one shard: its
// own subdirectory, an even slice of the records, and a checkpoint
// schedule phase-shifted by shard*CheckpointInterval/Shards. With
// Shards <= 1 it returns c unchanged (same Dir, same layout), so a
// sharded caller over a Shards:1 config is byte-compatible with the
// plain single-engine database.
func (c Config) ShardConfig(shard int) (Config, error) {
	if c.Shards < 0 {
		return Config{}, fmt.Errorf("mmdb: negative Shards %d", c.Shards)
	}
	n := c.Shards
	if n <= 1 {
		if shard != 0 {
			return Config{}, fmt.Errorf("mmdb: shard %d of an unsharded config", shard)
		}
		c.Shards = 0
		return c, nil
	}
	if shard < 0 || shard >= n {
		return Config{}, fmt.Errorf("mmdb: shard %d out of range [0,%d)", shard, n)
	}
	if c.NumRecords%n != 0 {
		return Config{}, fmt.Errorf("mmdb: NumRecords %d does not divide across %d shards", c.NumRecords, n)
	}
	sc := c
	sc.Shards = 0
	sc.Dir = filepath.Join(c.Dir, ShardDirName(shard))
	sc.NumRecords = c.NumRecords / n
	sc.CheckpointStagger = time.Duration(shard) * c.CheckpointInterval / time.Duration(n)
	return sc, nil
}

// engineParams converts the public configuration to engine parameters.
func (c Config) engineParams() (engine.Params, error) {
	c = c.withDefaults()
	if c.Shards < 0 {
		return engine.Params{}, fmt.Errorf("mmdb: negative Shards %d", c.Shards)
	}
	if c.Shards > 1 {
		return engine.Params{}, fmt.Errorf("mmdb: Shards %d: a DB is one engine; open sharded configs through the shard router (cmd/mmdbd or ShardConfig per shard)", c.Shards)
	}
	p := engine.Params{
		Dir: c.Dir,
		Storage: storage.Config{
			NumRecords:   c.NumRecords,
			RecordBytes:  c.RecordBytes,
			SegmentBytes: c.SegmentBytes,
		},
		Algorithm:               c.Algorithm,
		Full:                    c.FullCheckpoints,
		StableTail:              c.StableLogTail,
		SyncCommit:              c.SyncCommit,
		LogFlushInterval:        c.GroupCommitInterval,
		CheckpointInterval:      c.CheckpointInterval,
		AutoCheckpoint:          c.AutoCheckpoint,
		LockTimeout:             c.LockTimeout,
		SyncOnFlush:             c.SyncOnFlush,
		Operations:              c.Operations,
		DisableLogCompaction:    c.DisableLogCompaction,
		CheckpointDirtyFraction: c.CheckpointDirtyFraction,
		CheckpointParallelism:   c.CheckpointParallelism,
		RecoveryParallelism:     c.RecoveryParallelism,
		HourglassWindow:         c.HourglassWindow,
		ThrottleSpeedup:         c.ThrottleSpeedup,
		FS:                      c.FS,
		SegmentHook:             c.CheckpointSegmentHook,

		SpanSampleEvery:           c.SpanSampleEvery,
		SlowOpCommitThreshold:     c.SlowOpCommitThreshold,
		SlowOpCheckpointThreshold: c.SlowOpCheckpointThreshold,
		CheckpointStagger:         c.CheckpointStagger,
	}
	if err := p.Validate(); err != nil {
		return engine.Params{}, err
	}
	return p, nil
}
