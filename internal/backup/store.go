package backup

import (
	"mmdb/internal/obs"
	"mmdb/internal/wal"
)

// Store is the pluggable backup-store seam: everything the engine's
// checkpointers and recovery need from the secondary (disk-resident)
// database, abstracted away from the file-backed implementation so a
// shard, an object store, or a remote replica can stand behind it
// without touching the checkpoint algorithms (ROADMAP item 5).
//
// Semantics every implementation must honor:
//
//   - Two ping-pong copies (storage.NumBackupCopies), addressed by copy
//     index; BeginCheckpoint durably clears a copy's Complete flag
//     before any of its segments are overwritten, and FinishCheckpoint
//     durably sets it after the data is stable — the checkpoint's
//     atomic commit point.
//   - WriteSegment stamps the writing checkpoint's ID; ReadSegment
//     returns it (0 = never written, dst zero-filled) and detects torn
//     writes (ErrBadSegment).
//   - WriteSegment and ReadSegment are called concurrently by parallel
//     checkpoint workers and recovery stripe readers, each on distinct
//     segments and buffers; implementations must support that.
type Store interface {
	// SetMetrics installs the per-segment write-latency histogram (may
	// be a no-op). Called once, before the store is shared.
	SetMetrics(segmentWriteSeconds *obs.Histogram)

	// NextTarget returns the ping-pong copy the next checkpoint should
	// overwrite (the one holding the older, or no, complete checkpoint).
	NextTarget() int
	// Latest returns the most recent complete checkpoint and its copy,
	// or ErrNoCheckpoint.
	Latest() (copyIdx int, info CheckpointInfo, err error)
	// CopyInfo returns the checkpoint status of one copy.
	CopyInfo(copyIdx int) CheckpointInfo

	// BeginCheckpoint durably marks copyIdx incomplete and records the
	// starting checkpoint info.
	BeginCheckpoint(copyIdx int, info CheckpointInfo) error
	// WriteSegment writes segment idx (exactly SegmentBytes long) into
	// copyIdx, stamped with the writing checkpoint's ID (never 0).
	WriteSegment(copyIdx, idx int, checkpointID uint64, data []byte) error
	// FinishCheckpoint makes the copy's data durable and flips its
	// Complete flag — the checkpoint's commit point.
	FinishCheckpoint(copyIdx int, endLSN wal.LSN, segmentsWritten int, bytesWritten int64) error

	// ReadSegment reads segment idx of copyIdx into dst (SegmentBytes
	// long), returning the writing checkpoint's ID (0 = unwritten,
	// dst zero-filled). Like append, it may use dst's spare capacity,
	// dst[len(dst):cap(dst)], as scratch.
	ReadSegment(copyIdx, idx int, dst []byte) (writtenBy uint64, err error)
	// ReadBuffer returns a SegmentBytes-long buffer with the spare
	// capacity ReadSegment needs to read into it without allocating.
	ReadBuffer() []byte
	// ReadAll streams every segment of copyIdx through fn in index
	// order, reusing one buffer; fn must not retain data.
	ReadAll(copyIdx int, fn func(idx int, writtenBy uint64, data []byte) error) error
	// Verify checks every written slot of copyIdx and returns the
	// number of valid written slots.
	Verify(copyIdx int) (written int, err error)

	// Stats reports I/O counters.
	Stats() Stats
	// NumSegments and SegmentBytes echo the configured geometry.
	NumSegments() int
	SegmentBytes() int
	// Close releases the store. For durable backends the backup data
	// must survive Close (recovery reopens the store after a crash).
	Close() error
}

// The two Store implementations.
var (
	_ Store = (*FileStore)(nil)
	_ Store = (*MemStore)(nil)
)
