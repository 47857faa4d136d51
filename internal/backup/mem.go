package backup

import (
	"fmt"
	"hash/crc32"
	"sync"

	"mmdb/internal/obs"
	"mmdb/internal/storage"
	"mmdb/internal/wal"
)

// MemStore is an in-memory Store: the shape of a remote backup backend
// (an object store, a replica) reduced to a map. It exists to prove the
// pluggable backup seam — the engine's checkpointers and recovery run
// against it unchanged — and as the test double for future backends.
//
// Durability model: the store's contents survive Close (a remote
// backend does not lose data when the database process dies), so a
// MemStore held across an engine Crash/Recover cycle plays the role of
// the surviving disk. Torn-write detection is modeled with the same
// per-slot checksum the file store uses.
type MemStore struct {
	numSegments  int
	segmentBytes int

	mu sync.RWMutex // lockorder:level=85
	// copies[c][idx] is the slot for segment idx of ping-pong copy c;
	// a nil slot was never written. guarded_by:mu
	copies [storage.NumBackupCopies][]*memSlot
	// meta mirrors the file store's metadata file. guarded_by:mu
	meta [storage.NumBackupCopies]CheckpointInfo

	// segWriteH, when set, records per-segment write latency.
	segWriteH *obs.Histogram

	statsMu sync.Mutex // lockorder:level=86
	// stats counts segment I/O. guarded_by:statsMu
	stats Stats
}

type memSlot struct {
	data      []byte
	crc       uint32
	writtenBy uint64
}

// NewMemStore creates an empty in-memory backup store with the given
// geometry.
func NewMemStore(numSegments, segmentBytes int) (*MemStore, error) {
	if numSegments <= 0 || segmentBytes <= 0 {
		return nil, fmt.Errorf("backup: invalid geometry %d segments × %d bytes", numSegments, segmentBytes)
	}
	var copies [storage.NumBackupCopies][]*memSlot
	for c := range copies {
		copies[c] = make([]*memSlot, numSegments)
	}
	return &MemStore{numSegments: numSegments, segmentBytes: segmentBytes, copies: copies}, nil
}

// SetMetrics installs the segment-write latency histogram.
func (s *MemStore) SetMetrics(segmentWriteSeconds *obs.Histogram) {
	s.segWriteH = segmentWriteSeconds
}

// NextTarget returns the ping-pong copy the next checkpoint overwrites.
//
// lockorder:acquires MemStore.mu
// lockorder:releases MemStore.mu
func (s *MemStore) NextTarget() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	a, b := s.meta[0], s.meta[1]
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

// Latest returns the most recent complete checkpoint and its copy.
//
// lockorder:acquires MemStore.mu
// lockorder:releases MemStore.mu
func (s *MemStore) Latest() (copyIdx int, info CheckpointInfo, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	best := -1
	for c := 0; c < storage.NumBackupCopies; c++ {
		ci := s.meta[c]
		if ci.Complete && (best < 0 || ci.ID > s.meta[best].ID) {
			best = c
		}
	}
	if best < 0 {
		return 0, CheckpointInfo{}, ErrNoCheckpoint
	}
	return best, s.meta[best], nil
}

// CopyInfo returns the checkpoint status of one copy.
//
// lockorder:acquires MemStore.mu
// lockorder:releases MemStore.mu
func (s *MemStore) CopyInfo(copyIdx int) CheckpointInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.meta[copyIdx]
}

// BeginCheckpoint marks copyIdx incomplete with the starting info.
//
// lockorder:acquires MemStore.mu
// lockorder:releases MemStore.mu
func (s *MemStore) BeginCheckpoint(copyIdx int, info CheckpointInfo) error {
	if copyIdx < 0 || copyIdx >= storage.NumBackupCopies {
		return fmt.Errorf("backup: copy %d out of range", copyIdx)
	}
	info.Complete = false
	s.mu.Lock()
	s.meta[copyIdx] = info
	s.mu.Unlock()
	return nil
}

// WriteSegment stores the image of segment idx into copyIdx.
//
// walorder:write
//
// lockorder:acquires MemStore.mu
// lockorder:releases MemStore.mu
func (s *MemStore) WriteSegment(copyIdx, idx int, checkpointID uint64, data []byte) error {
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
		return fmt.Errorf("backup: checkpoint ID 0 is reserved for unwritten slots")
	}
	slot := &memSlot{
		data:      append([]byte(nil), data...),
		crc:       crc32.Checksum(data, crcTable),
		writtenBy: checkpointID,
	}
	s.mu.Lock()
	s.copies[copyIdx][idx] = slot
	s.mu.Unlock()
	s.statsMu.Lock()
	s.stats.SegmentWrites++
	s.statsMu.Unlock()
	return nil
}

// FinishCheckpoint flips the copy's Complete flag — the commit point.
//
// lockorder:acquires MemStore.mu
// lockorder:releases MemStore.mu
func (s *MemStore) FinishCheckpoint(copyIdx int, endLSN wal.LSN, segmentsWritten int, bytesWritten int64) error {
	if copyIdx < 0 || copyIdx >= storage.NumBackupCopies {
		return fmt.Errorf("backup: copy %d out of range", copyIdx)
	}
	s.mu.Lock()
	ci := s.meta[copyIdx]
	ci.Complete = true
	ci.EndLSN = endLSN
	ci.SegmentsWritten = segmentsWritten
	ci.BytesWritten = bytesWritten
	s.meta[copyIdx] = ci
	s.mu.Unlock()
	return nil
}

// ReadBuffer returns a segment buffer; MemStore reads need no scratch.
func (s *MemStore) ReadBuffer() []byte { return make([]byte, s.segmentBytes) }

// ReadSegment reads segment idx of copyIdx into dst.
//
// lockorder:acquires MemStore.mu
// lockorder:releases MemStore.mu
func (s *MemStore) ReadSegment(copyIdx, idx int, dst []byte) (writtenBy uint64, err error) {
	if copyIdx < 0 || copyIdx >= storage.NumBackupCopies {
		return 0, fmt.Errorf("backup: copy %d out of range", copyIdx)
	}
	if idx < 0 || idx >= s.numSegments {
		return 0, fmt.Errorf("backup: segment %d out of range [0,%d)", idx, s.numSegments)
	}
	if len(dst) != s.segmentBytes {
		return 0, fmt.Errorf("backup: segment %d read size %d, want %d", idx, len(dst), s.segmentBytes)
	}
	s.mu.RLock()
	slot := s.copies[copyIdx][idx]
	s.mu.RUnlock()
	if slot == nil {
		for i := range dst {
			dst[i] = 0
		}
		s.bumpReads()
		return 0, nil
	}
	if crc32.Checksum(slot.data, crcTable) != slot.crc {
		return slot.writtenBy, fmt.Errorf("%w: segment %d copy %d", ErrBadSegment, idx, copyIdx)
	}
	copy(dst, slot.data)
	s.bumpReads()
	return slot.writtenBy, nil
}

// lockorder:acquires MemStore.statsMu
// lockorder:releases MemStore.statsMu
func (s *MemStore) bumpReads() {
	s.statsMu.Lock()
	s.stats.SegmentReads++
	s.statsMu.Unlock()
}

// ReadAll streams every segment of copyIdx through fn in index order.
func (s *MemStore) ReadAll(copyIdx int, fn func(idx int, writtenBy uint64, data []byte) error) error {
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

// Verify checks every written slot of copyIdx.
func (s *MemStore) Verify(copyIdx int) (written int, err error) {
	err = s.ReadAll(copyIdx, func(_ int, writtenBy uint64, _ []byte) error {
		if writtenBy != 0 {
			written++
		}
		return nil
	})
	return written, err
}

// Stats returns a snapshot of I/O counters.
//
// lockorder:acquires MemStore.statsMu
// lockorder:releases MemStore.statsMu
func (s *MemStore) Stats() Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

// NumSegments returns the configured segment count.
func (s *MemStore) NumSegments() int { return s.numSegments }

// SegmentBytes returns the configured segment size.
func (s *MemStore) SegmentBytes() int { return s.segmentBytes }

// Close is a no-op: a remote backend's data survives the process.
func (s *MemStore) Close() error { return nil }
