// Package backup implements the secondary (disk-resident) database: two
// ping-pong backup copies of which only one is updated per checkpoint, so
// that a complete checkpoint always survives a crash in the middle of
// another (Section 2.6 of Salem & Garcia-Molina, "Checkpointing
// Memory-Resident Databases").
//
// Each copy is a file of fixed-size segment slots. A slot carries a
// checksum and the ID of the checkpoint that wrote it, so recovery detects
// torn segment writes. Checkpoint status lives in a small metadata file
// replaced atomically (write-temp-then-rename), which is the commit point
// of a checkpoint.
package backup

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"mmdb/internal/faultfs"
	"mmdb/internal/obs"
	"mmdb/internal/storage"
	"mmdb/internal/wal"
)

const (
	// slotTrailerBytes is the per-segment on-disk trailer:
	// crc32 (4) + reserved (4) + writing checkpoint ID (8).
	slotTrailerBytes = 16
	metaName         = "backup.meta"
	copyNameFmt      = "backup%d.db"
	metaVersion      = 1
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrBadSegment reports a segment slot that failed checksum validation.
var ErrBadSegment = errors.New("backup: segment checksum mismatch (torn write)")

// ErrNoCheckpoint reports that no complete checkpoint exists yet.
var ErrNoCheckpoint = errors.New("backup: no complete checkpoint available")

// CheckpointInfo records the status of the checkpoint most recently taken
// (or underway) into one backup copy.
type CheckpointInfo struct {
	// ID is the checkpoint's monotonically increasing identifier.
	ID uint64 `json:"id"`
	// Complete marks a finished checkpoint; recovery only uses complete
	// copies. It is set by the atomic metadata replace that ends a
	// checkpoint.
	Complete bool `json:"complete"`
	// Algorithm names the checkpoint algorithm, for operators.
	Algorithm string `json:"algorithm"`
	// Full records whether this was a full (not partial) checkpoint.
	Full bool `json:"full"`
	// BeginLSN is the LSN of this checkpoint's begin-checkpoint marker.
	BeginLSN wal.LSN `json:"begin_lsn"`
	// ScanStartLSN is where the redo scan must start when recovering from
	// this checkpoint: min(BeginLSN, first LSN of any transaction active
	// at checkpoint begin). For fuzzy checkpoints this is the "scan
	// backwards even further" point of Section 3.3.
	ScanStartLSN wal.LSN `json:"scan_start_lsn"`
	// EndLSN is the log end when the checkpoint completed.
	EndLSN wal.LSN `json:"end_lsn"`
	// Timestamp is the checkpoint's logical timestamp (τ(CH) for COU).
	Timestamp uint64 `json:"timestamp"`
	// SegmentsWritten and BytesWritten describe the checkpoint's volume.
	SegmentsWritten int   `json:"segments_written"`
	BytesWritten    int64 `json:"bytes_written"`
}

type metaFile struct {
	Version      int                                     `json:"version"`
	NumSegments  int                                     `json:"num_segments"`
	SegmentBytes int                                     `json:"segment_bytes"`
	Copies       [storage.NumBackupCopies]CheckpointInfo `json:"copies"`
}

// FileStore is the file-backed Store: two backup copy files plus a
// metadata file in a directory, written through a faultfs.FS seam.
type FileStore struct {
	dir          string
	fsys         faultfs.FS
	numSegments  int
	segmentBytes int
	slotBytes    int
	files        [storage.NumBackupCopies]faultfs.File
	meta         metaFile

	// Counters for I/O accounting. Atomic: WriteSegment and ReadSegment
	// are called concurrently by parallel checkpoint workers and recovery
	// stripe readers (each on distinct segments/buffers).
	segWrites atomic.Uint64
	segReads  atomic.Uint64

	// segWriteH, when set, records per-segment write latency. Set once
	// via SetMetrics before the store is used concurrently.
	segWriteH *obs.Histogram
}

// SetMetrics installs the segment-write latency histogram. Call it after
// OpenFS and before the store is shared with the checkpointer.
func (s *FileStore) SetMetrics(segmentWriteSeconds *obs.Histogram) {
	s.segWriteH = segmentWriteSeconds
}

// Open creates or opens the backup store in dir for a database of
// numSegments segments of segmentBytes each. Existing metadata must match
// the geometry.
func Open(dir string, numSegments, segmentBytes int) (*FileStore, error) {
	return OpenFS(nil, dir, numSegments, segmentBytes)
}

// OpenFS is Open writing through fsys (nil means the OS directly); tests
// inject a faultfs.Injector here.
func OpenFS(fsys faultfs.FS, dir string, numSegments, segmentBytes int) (*FileStore, error) {
	if numSegments <= 0 || segmentBytes <= 0 {
		return nil, fmt.Errorf("backup: invalid geometry %d segments × %d bytes", numSegments, segmentBytes)
	}
	fsys = faultfs.Or(fsys)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("backup: mkdir: %w", err)
	}
	s := &FileStore{
		dir:          dir,
		fsys:         fsys,
		numSegments:  numSegments,
		segmentBytes: segmentBytes,
		slotBytes:    segmentBytes + slotTrailerBytes,
	}
	metaPath := filepath.Join(dir, metaName)
	if raw, err := fsys.ReadFile(metaPath); err == nil {
		if err := json.Unmarshal(raw, &s.meta); err != nil {
			return nil, fmt.Errorf("backup: corrupt metadata: %w", err)
		}
		if s.meta.Version != metaVersion {
			return nil, fmt.Errorf("backup: metadata version %d, want %d", s.meta.Version, metaVersion)
		}
		if s.meta.NumSegments != numSegments || s.meta.SegmentBytes != segmentBytes {
			return nil, fmt.Errorf("backup: geometry mismatch: meta %d×%d, want %d×%d",
				s.meta.NumSegments, s.meta.SegmentBytes, numSegments, segmentBytes)
		}
	} else if errors.Is(err, os.ErrNotExist) {
		s.meta = metaFile{Version: metaVersion, NumSegments: numSegments, SegmentBytes: segmentBytes}
		if err := s.writeMeta(); err != nil {
			return nil, err
		}
	} else {
		return nil, fmt.Errorf("backup: read metadata: %w", err)
	}

	size := int64(numSegments) * int64(s.slotBytes)
	for c := 0; c < storage.NumBackupCopies; c++ {
		f, err := fsys.OpenFile(filepath.Join(dir, fmt.Sprintf(copyNameFmt, c)), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			s.closeFiles()
			return nil, fmt.Errorf("backup: open copy %d: %w", c, err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			s.closeFiles()
			return nil, fmt.Errorf("backup: stat copy %d: %w", c, err)
		}
		if fi.Size() < size {
			// Extend sparsely; unwritten slots read as zeros with
			// checkpoint ID 0, meaning "never written".
			if err := f.Truncate(size); err != nil {
				f.Close()
				s.closeFiles()
				return nil, fmt.Errorf("backup: size copy %d: %w", c, err)
			}
		}
		s.files[c] = f
	}
	return s, nil
}

func (s *FileStore) closeFiles() {
	for _, f := range s.files {
		if f != nil {
			f.Close()
		}
	}
}

// Close releases the store.
func (s *FileStore) Close() error {
	var err error
	for _, f := range s.files {
		if f != nil {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}

// writeMeta atomically replaces the metadata file.
func (s *FileStore) writeMeta() error {
	raw, err := json.MarshalIndent(&s.meta, "", "  ")
	if err != nil {
		return fmt.Errorf("backup: marshal metadata: %w", err)
	}
	tmp := filepath.Join(s.dir, metaName+".tmp")
	if err := s.fsys.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("backup: write metadata: %w", err)
	}
	if err := s.fsys.Rename(tmp, filepath.Join(s.dir, metaName)); err != nil {
		return fmt.Errorf("backup: replace metadata: %w", err)
	}
	_ = s.fsys.SyncDir(s.dir)
	return nil
}

// NextTarget returns the ping-pong copy the next checkpoint should write:
// successive checkpoints alternate, so the copy holding the older (or no)
// complete checkpoint is the target.
func (s *FileStore) NextTarget() int {
	a, b := s.meta.Copies[0], s.meta.Copies[1]
	switch {
	case !a.Complete:
		return 0
	case !b.Complete:
		return 1
	case a.ID < b.ID:
		return 0
	default:
		return 1
	}
}

// Latest returns the most recent complete checkpoint and its copy index.
func (s *FileStore) Latest() (copyIdx int, info CheckpointInfo, err error) {
	best := -1
	for c := 0; c < storage.NumBackupCopies; c++ {
		ci := s.meta.Copies[c]
		if ci.Complete && (best < 0 || ci.ID > s.meta.Copies[best].ID) {
			best = c
		}
	}
	if best < 0 {
		return 0, CheckpointInfo{}, ErrNoCheckpoint
	}
	return best, s.meta.Copies[best], nil
}

// CopyInfo returns the checkpoint status of one copy.
func (s *FileStore) CopyInfo(copyIdx int) CheckpointInfo { return s.meta.Copies[copyIdx] }

// BeginCheckpoint marks copyIdx as being overwritten by the checkpoint
// described in info (Complete is forced false) and persists the metadata.
// After a crash mid-checkpoint the copy is ignored by recovery.
func (s *FileStore) BeginCheckpoint(copyIdx int, info CheckpointInfo) error {
	if copyIdx < 0 || copyIdx >= storage.NumBackupCopies {
		return fmt.Errorf("backup: copy %d out of range", copyIdx)
	}
	info.Complete = false
	s.meta.Copies[copyIdx] = info
	return s.writeMeta()
}

// WriteSegment writes the image of segment idx (exactly segmentBytes long)
// into copyIdx, stamped with the writing checkpoint's ID.
//
// walorder:write
func (s *FileStore) WriteSegment(copyIdx, idx int, checkpointID uint64, data []byte) error {
	if copyIdx < 0 || copyIdx >= storage.NumBackupCopies {
		return fmt.Errorf("backup: copy %d out of range", copyIdx)
	}
	if idx < 0 || idx >= s.numSegments {
		return fmt.Errorf("backup: segment %d out of range [0,%d)", idx, s.numSegments)
	}
	if len(data) != s.segmentBytes {
		return fmt.Errorf("backup: segment %d write size %d, want %d", idx, len(data), s.segmentBytes)
	}
	if checkpointID == 0 {
		return errors.New("backup: checkpoint ID 0 is reserved for unwritten slots")
	}
	buf := make([]byte, s.slotBytes)
	copy(buf, data)
	binary.LittleEndian.PutUint32(buf[s.segmentBytes:], crc32.Checksum(data, crcTable))
	binary.LittleEndian.PutUint64(buf[s.segmentBytes+8:], checkpointID)
	var began time.Time
	if s.segWriteH != nil {
		began = time.Now()
	}
	if _, err := s.files[copyIdx].WriteAt(buf, int64(idx)*int64(s.slotBytes)); err != nil {
		return fmt.Errorf("backup: write segment %d copy %d: %w", idx, copyIdx, err)
	}
	if !began.IsZero() {
		s.segWriteH.ObserveSince(began)
	}
	s.segWrites.Add(1)
	return nil
}

// FinishCheckpoint durably completes the checkpoint on copyIdx: the data
// file is synced, then the metadata flips Complete — the checkpoint's
// atomic commit point.
func (s *FileStore) FinishCheckpoint(copyIdx int, endLSN wal.LSN, segmentsWritten int, bytesWritten int64) error {
	if copyIdx < 0 || copyIdx >= storage.NumBackupCopies {
		return fmt.Errorf("backup: copy %d out of range", copyIdx)
	}
	if err := s.files[copyIdx].Sync(); err != nil {
		return fmt.Errorf("backup: sync copy %d: %w", copyIdx, err)
	}
	ci := s.meta.Copies[copyIdx]
	ci.Complete = true
	ci.EndLSN = endLSN
	ci.SegmentsWritten = segmentsWritten
	ci.BytesWritten = bytesWritten
	s.meta.Copies[copyIdx] = ci
	return s.writeMeta()
}

// ReadBuffer returns a segment buffer whose spare capacity holds the slot
// trailer, so ReadSegment reads the whole slot into it with one read and
// no allocation.
func (s *FileStore) ReadBuffer() []byte { return make([]byte, s.segmentBytes, s.slotBytes) }

// ReadSegment reads segment idx of copyIdx into dst (segmentBytes long).
// It returns the ID of the checkpoint that wrote the slot; 0 means the
// slot was never written and dst is zero-filled (the initial database
// state). The slot's trailer lands in dst's spare capacity when there is
// room (a ReadBuffer), else in a slot buffer allocated for the call.
func (s *FileStore) ReadSegment(copyIdx, idx int, dst []byte) (writtenBy uint64, err error) {
	if copyIdx < 0 || copyIdx >= storage.NumBackupCopies {
		return 0, fmt.Errorf("backup: copy %d out of range", copyIdx)
	}
	if idx < 0 || idx >= s.numSegments {
		return 0, fmt.Errorf("backup: segment %d out of range [0,%d)", idx, s.numSegments)
	}
	if len(dst) != s.segmentBytes {
		return 0, fmt.Errorf("backup: segment %d read size %d, want %d", idx, len(dst), s.segmentBytes)
	}
	inPlace := cap(dst) >= s.slotBytes
	buf := dst[:cap(dst)]
	if !inPlace {
		buf = make([]byte, s.slotBytes)
	}
	buf = buf[:s.slotBytes]
	if _, err := s.files[copyIdx].ReadAt(buf, int64(idx)*int64(s.slotBytes)); err != nil {
		return 0, fmt.Errorf("backup: read segment %d copy %d: %w", idx, copyIdx, err)
	}
	writtenBy = binary.LittleEndian.Uint64(buf[s.segmentBytes+8:])
	if writtenBy == 0 {
		for i := range dst {
			dst[i] = 0
		}
		s.segReads.Add(1)
		return 0, nil
	}
	if crc32.Checksum(buf[:s.segmentBytes], crcTable) != binary.LittleEndian.Uint32(buf[s.segmentBytes:]) {
		return writtenBy, fmt.Errorf("%w: segment %d copy %d", ErrBadSegment, idx, copyIdx)
	}
	if !inPlace {
		copy(dst, buf)
	}
	s.segReads.Add(1)
	return writtenBy, nil
}

// ReadAll streams every segment of copyIdx through fn in index order,
// re-using one buffer. fn must not retain data.
func (s *FileStore) ReadAll(copyIdx int, fn func(idx int, writtenBy uint64, data []byte) error) error {
	buf := s.ReadBuffer()
	for i := 0; i < s.numSegments; i++ {
		writtenBy, err := s.ReadSegment(copyIdx, i, buf)
		if err != nil {
			return err
		}
		if err := fn(i, writtenBy, buf); err != nil {
			return err
		}
	}
	return nil
}

// Verify checks every written slot of copyIdx against its checksum and
// returns the number of valid written slots.
func (s *FileStore) Verify(copyIdx int) (written int, err error) {
	err = s.ReadAll(copyIdx, func(_ int, writtenBy uint64, _ []byte) error {
		if writtenBy != 0 {
			written++
		}
		return nil
	})
	return written, err
}

// Stats reports I/O counters.
type Stats struct {
	SegmentWrites uint64
	SegmentReads  uint64
}

// Stats returns a snapshot of I/O counters.
func (s *FileStore) Stats() Stats {
	return Stats{SegmentWrites: s.segWrites.Load(), SegmentReads: s.segReads.Load()}
}

// NumSegments returns the configured segment count.
func (s *FileStore) NumSegments() int { return s.numSegments }

// SegmentBytes returns the configured segment size.
func (s *FileStore) SegmentBytes() int { return s.segmentBytes }
