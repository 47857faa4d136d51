// Package inspect implements offline examination of an mmdb database
// directory: checkpoint metadata, backup checksum verification, log
// scanning, and recovery dry runs. cmd/mmdbctl is a thin CLI over it.
// The database must not be open while it is inspected.
package inspect

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"mmdb/internal/backup"
	"mmdb/internal/engine"
	"mmdb/internal/storage"
	"mmdb/internal/wal"
)

// logFileName mirrors the engine's log file name.
const logFileName = "redo.log"

// Geometry is the backup store's segment layout.
type Geometry struct {
	NumSegments  int
	SegmentBytes int
}

// ProbeGeometry reads the segment layout from the backup metadata file
// without needing the database configuration.
func ProbeGeometry(dir string) (Geometry, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "backup.meta"))
	if err != nil {
		return Geometry{}, fmt.Errorf("inspect: %w", err)
	}
	var probe struct {
		NumSegments  int `json:"num_segments"`
		SegmentBytes int `json:"segment_bytes"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return Geometry{}, fmt.Errorf("inspect: corrupt backup metadata: %w", err)
	}
	if probe.NumSegments <= 0 || probe.SegmentBytes <= 0 {
		return Geometry{}, errors.New("inspect: backup metadata carries no geometry")
	}
	return Geometry{NumSegments: probe.NumSegments, SegmentBytes: probe.SegmentBytes}, nil
}

// LogInfo summarizes the redo log file.
type LogInfo struct {
	// Base is the oldest LSN still present (after head compaction);
	// ValidEnd the end of the intact record chain; FileEnd the raw end of
	// the file. TornBytes = FileEnd − ValidEnd.
	Base      wal.LSN
	ValidEnd  wal.LSN
	FileEnd   wal.LSN
	TornBytes int64
	// Counts tallies the valid records by type.
	Counts map[wal.RecordType]int
}

// DirInfo is the offline view of a database directory.
type DirInfo struct {
	Geometry Geometry
	// Copies holds each ping-pong copy's checkpoint status.
	Copies [storage.NumBackupCopies]backup.CheckpointInfo
	// RecoveryCopy and RecoveryCheckpoint identify the checkpoint recovery
	// would use; HasRecoverySource is false when no complete checkpoint
	// exists (recovery would replay the whole log from the zero state).
	HasRecoverySource  bool
	RecoveryCopy       int
	RecoveryCheckpoint backup.CheckpointInfo
	// Log summarizes the redo log; nil if the log file is missing.
	Log *LogInfo
}

// Info gathers DirInfo for dir.
func Info(dir string) (*DirInfo, error) {
	geo, err := ProbeGeometry(dir)
	if err != nil {
		return nil, err
	}
	bs, err := backup.Open(dir, geo.NumSegments, geo.SegmentBytes)
	if err != nil {
		return nil, err
	}
	defer bs.Close() //nolint:errcheckwal // read-only inspection handle

	di := &DirInfo{Geometry: geo}
	for c := 0; c < storage.NumBackupCopies; c++ {
		di.Copies[c] = bs.CopyInfo(c)
	}
	if c, ci, err := bs.Latest(); err == nil {
		di.HasRecoverySource = true
		di.RecoveryCopy = c
		di.RecoveryCheckpoint = ci
	}

	li, err := scanLog(dir)
	if err == nil {
		di.Log = li
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	return di, nil
}

func scanLog(dir string) (*LogInfo, error) {
	r, err := wal.OpenReader(filepath.Join(dir, logFileName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, os.ErrNotExist
		}
		return nil, err
	}
	defer r.Close() //nolint:errcheckwal // read-only inspection handle
	li := &LogInfo{
		Base:    r.Base(),
		FileEnd: r.Size(),
		Counts:  make(map[wal.RecordType]int),
	}
	li.ValidEnd = r.Base()
	err = r.Scan(r.Base(), func(e wal.Entry) error {
		li.ValidEnd = e.Next
		li.Counts[e.Rec.Type]++
		return nil
	})
	if err != nil {
		return nil, err
	}
	li.TornBytes = li.FileEnd.Sub(li.ValidEnd)
	return li, nil
}

// VerifyResult reports checksum verification of both backup copies and
// validation of the log chain.
type VerifyResult struct {
	// CopySegments[c] is the number of written, checksum-valid segment
	// slots in copy c.
	CopySegments [storage.NumBackupCopies]int
	Log          LogInfo
}

// Verify checks every written backup slot against its checksum and walks
// the log chain. A checksum or chain failure is returned as an error.
func Verify(dir string) (*VerifyResult, error) {
	geo, err := ProbeGeometry(dir)
	if err != nil {
		return nil, err
	}
	bs, err := backup.Open(dir, geo.NumSegments, geo.SegmentBytes)
	if err != nil {
		return nil, err
	}
	defer bs.Close() //nolint:errcheckwal // read-only inspection handle
	res := &VerifyResult{}
	for c := 0; c < storage.NumBackupCopies; c++ {
		n, err := bs.Verify(c)
		if err != nil {
			return nil, fmt.Errorf("inspect: backup copy %d: %w", c, err)
		}
		res.CopySegments[c] = n
	}
	li, err := scanLog(dir)
	if err != nil {
		return nil, err
	}
	res.Log = *li
	return res, nil
}

// IterateLog streams valid log records from LSN from (clamped up to the
// compacted base), stopping after limit records when limit > 0. fn may
// stop early by returning a non-nil error, which is swallowed if it is
// ErrStopIteration and propagated otherwise. As with wal.Reader.Scan, the
// entry's record and its Data are reused for the next record: fn must
// copy what it keeps.
func IterateLog(dir string, from wal.LSN, limit int, fn func(wal.Entry) error) (int, error) {
	r, err := wal.OpenReader(filepath.Join(dir, logFileName))
	if err != nil {
		return 0, err
	}
	defer r.Close() //nolint:errcheckwal // read-only inspection handle
	if from.Before(r.Base()) {
		from = r.Base()
	}
	n := 0
	err = r.Scan(from, func(e wal.Entry) error {
		if err := fn(e); err != nil {
			return err
		}
		n++
		if limit > 0 && n >= limit {
			return ErrStopIteration
		}
		return nil
	})
	if err != nil && !errors.Is(err, ErrStopIteration) {
		return n, err
	}
	return n, nil
}

// ErrStopIteration stops IterateLog early without reporting an error.
var ErrStopIteration = errors.New("inspect: stop iteration")

// DryRun copies the directory to scratch space, runs full crash recovery
// there, and returns the report; the original directory is untouched.
// Custom logical operations used by the database must be supplied in ops.
func DryRun(dir string, cfg storage.Config, ops map[engine.OpCode]engine.OpFunc) (*engine.RecoveryReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp("", "mmdb-inspect-dryrun-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	if err := copyDir(dir, scratch); err != nil {
		return nil, err
	}
	e, rep, err := engine.Recover(engine.Params{
		Dir:        scratch,
		Storage:    cfg,
		Algorithm:  engine.FuzzyCopy, // recovery is algorithm-agnostic
		Operations: ops,
	})
	if err != nil {
		return nil, err
	}
	if err := e.Close(); err != nil {
		return rep, err
	}
	return rep, nil
}

// copyDir copies the regular files of src into dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
