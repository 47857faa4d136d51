package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mmdb/internal/backup"
	"mmdb/internal/faultfs"
	"mmdb/internal/obs"
	"mmdb/internal/storage"
	"mmdb/internal/wal"
)

// RecoveryReport describes what system-failure recovery did: which backup
// copy it loaded, how much log it scanned, and how much redo it applied.
// The byte volumes feed recovery-time estimates under a disk model (the
// paper takes recovery time to be backup read time plus log read time).
type RecoveryReport struct {
	// UsedCheckpoint is false when no complete checkpoint existed and the
	// database was rebuilt from the initial (zero) state plus the log.
	UsedCheckpoint bool
	// UsedCopy is the ping-pong copy recovered from.
	UsedCopy int
	// CheckpointID and CheckpointAlgorithm identify the checkpoint.
	CheckpointID        uint64
	CheckpointAlgorithm string
	// ScanStartLSN is where the forward redo scan began; for fuzzy
	// checkpoints it precedes the begin-checkpoint marker when
	// transactions were active at checkpoint begin.
	ScanStartLSN wal.LSN
	// LogEndLSN is the end of the intact log prefix.
	LogEndLSN wal.LSN
	// SegmentsLoaded counts backup slots actually written (the rest of the
	// database is its initial zero state).
	SegmentsLoaded int
	// BackupBytesRead and LogBytesRead are the I/O volumes that dominate
	// recovery time.
	BackupBytesRead int64
	LogBytesRead    int64
	// TornTailBytes is the length of the log suffix discarded because a
	// crash tore it (truncated or corrupted the final record frame).
	TornTailBytes int64
	// RecordsScanned counts log records examined; TxnsReplayed counts
	// committed transactions whose updates were applied; UpdatesApplied
	// and UpdatesDiscarded split redo records by commit status (discarded
	// updates belong to uncommitted or aborted transactions — redo-only
	// logging simply ignores them).
	RecordsScanned   int
	TxnsReplayed     int
	UpdatesApplied   int
	UpdatesDiscarded int
	// LogicalReplayed counts the subset of UpdatesApplied that were
	// logical (operation) records.
	LogicalReplayed int
	// Parallelism is the worker count the backup load and redo apply ran
	// with (Params.RecoveryParallelism after defaulting). The recovered
	// image is byte-identical at any setting.
	Parallelism int
	// Elapsed is the wall-clock recovery duration in this process.
	Elapsed time.Duration
	// Phase durations: Elapsed ≈ BackupLoadTime + LogScanTime +
	// RedoApplyTime plus setup. These are the measured counterparts of
	// the paper's recovery-time model (backup read time + log read time);
	// the same values are exposed as mmdb_recovery_*_seconds gauges.
	BackupLoadTime time.Duration
	LogScanTime    time.Duration
	RedoApplyTime  time.Duration
}

// Recover rebuilds the primary database from the backup store and the log
// (Section 3.3): it reads the most recent complete backup copy into main
// memory, then scans the log forward from the checkpoint's scan-start
// position, applying the after-images of committed transactions in log
// order. It returns a running engine.
//
// ctxcheck:root(no-ctx convenience wrapper; RecoverContext is the cancellable form)
func Recover(p Params) (*Engine, *RecoveryReport, error) {
	return RecoverContext(context.Background(), p)
}

// RecoverContext is Recover with cancellation: ctx is consulted between
// backup segments, between log records, and between recovery phases,
// never mid-segment or mid-record. A cancelled recovery returns ctx's
// error with no engine; the on-disk state is untouched except possibly
// a truncated torn log tail, which a later recovery would truncate
// identically — re-running recovery after a cancellation is always
// safe.
func RecoverContext(ctx context.Context, p Params) (*Engine, *RecoveryReport, error) {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	started := time.Now()
	eo := newEngineObs(p.SpanSampleEvery)
	// The recovery span tree ends only on the success path: on error the
	// engineObs (and its span ring) is discarded with the failed recovery.
	recSpan := eo.spans.Begin(obs.SpanRecovery, obs.SpanNone, 0, 0)

	st, err := storage.New(p.Storage)
	if err != nil {
		return nil, nil, err
	}
	bs, err := p.openBackupStore(st.NumSegments())
	if err != nil {
		return nil, nil, err
	}
	ok := false
	defer func() {
		if !ok {
			bs.Close() //nolint:errcheckwal // best-effort cleanup; the recovery error takes precedence
		}
	}()

	rep := &RecoveryReport{}
	copyIdx, info, err := bs.Latest()
	switch {
	case err == nil:
		rep.UsedCheckpoint = true
		rep.UsedCopy = copyIdx
		rep.CheckpointID = info.ID
		rep.CheckpointAlgorithm = info.Algorithm
		rep.ScanStartLSN = info.ScanStartLSN
	case errors.Is(err, backup.ErrNoCheckpoint):
		// Crash before the first checkpoint completed: recover from the
		// initial zero database plus the whole log.
		rep.ScanStartLSN = 0
	default:
		return nil, nil, err
	}

	// Load the backup copy into primary memory, striped across
	// RecoveryParallelism concurrent readers.
	par := p.RecoveryParallelism
	rep.Parallelism = par
	loadSpan := eo.spans.Begin(obs.SpanRecBackupLoad, recSpan, uint64(copyIdx), 0)
	phaseBegan := time.Now()
	writtenBy := make([]uint64, st.NumSegments())
	if rep.UsedCheckpoint {
		err = loadBackupStriped(ctx, bs, st, copyIdx, par, p.Storage.SegmentBytes, writtenBy, rep)
		if err != nil {
			return nil, nil, fmt.Errorf("engine: recovery: load backup copy %d: %w", copyIdx, err)
		}
	}
	rep.BackupLoadTime = time.Since(phaseBegan)
	eo.spans.End(loadSpan)
	eo.recBackupLoad.Set(rep.BackupLoadTime.Seconds())

	// Scan the log. Pass 1 finds committed transactions; pass 2 applies
	// their after-images in log order (record-level X locks held to commit
	// make per-record log order match commit order, so last-in-log wins).
	scanSpan := eo.spans.Begin(obs.SpanRecLogScan, recSpan, 0, 0)
	phaseBegan = time.Now()
	logPath := filepath.Join(p.Dir, logFileName)
	reader, err := wal.OpenReader(logPath)
	if err != nil {
		if os.IsNotExist(err) && !rep.UsedCheckpoint {
			return nil, nil, errors.New("engine: recovery: no log and no checkpoint; nothing to recover (use Open for a new database)")
		}
		if errors.Is(err, wal.ErrBadHeader) && !rep.UsedCheckpoint {
			// A crash tore the very first write to a fresh log (the file
			// header). No record can have been durable — records only
			// follow a complete header — so with no checkpoint either,
			// the durable state is the initial empty database. Reset the
			// file and recover from nothing.
			if terr := wal.Reset(p.FS, logPath, 0); terr != nil {
				return nil, nil, fmt.Errorf("engine: recovery: reset torn log header: %w", terr)
			}
			reader, err = wal.OpenReader(logPath)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	// Walk the whole surviving log once: find the intact end and the
	// highest transaction ID ever used. The re-opened engine must issue
	// IDs above every ID still visible in the log — otherwise a new
	// committed transaction could share an ID with an old aborted one,
	// and a later recovery would replay the aborted redo records as
	// committed.
	var maxTxnID uint64
	validEnd := reader.Base()
	err = reader.Scan(reader.Base(), func(e wal.Entry) error {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		validEnd = e.Next
		if e.Rec.TxnID > maxTxnID {
			maxTxnID = e.Rec.TxnID
		}
		return nil
	})
	if err != nil {
		return nil, nil, errors.Join(fmt.Errorf("engine: recovery: locate log end: %w", err), reader.Close())
	}
	rep.LogEndLSN = validEnd

	if rep.UsedCheckpoint {
		// Fidelity cross-check of the paper's backward scan: the
		// begin-checkpoint marker for the recovered checkpoint must exist
		// in the durable log and agree with the backup metadata.
		marker, merr := reader.FindCheckpoint(validEnd, info.ID)
		if merr != nil {
			return nil, nil, errors.Join(fmt.Errorf("engine: recovery: %w", merr), reader.Close())
		}
		if marker.LSN != info.BeginLSN || marker.ScanStart != info.ScanStartLSN {
			return nil, nil, errors.Join(
				fmt.Errorf("engine: recovery: marker/metadata mismatch: marker at %d (scan %d), metadata says %d (scan %d)",
					marker.LSN, marker.ScanStart, info.BeginLSN, info.ScanStartLSN),
				reader.Close())
		}
	}

	committed := make(map[uint64]bool)
	err = reader.Scan(rep.ScanStartLSN, func(e wal.Entry) error {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		rep.RecordsScanned++
		rep.LogBytesRead += e.Next.Sub(e.LSN)
		if e.Rec.Type == wal.TypeCommit {
			committed[e.Rec.TxnID] = true
		}
		return nil
	})
	if err != nil {
		return nil, nil, errors.Join(fmt.Errorf("engine: recovery: commit scan: %w", err), reader.Close())
	}
	rep.TxnsReplayed = len(committed)
	rep.LogScanTime = time.Since(phaseBegan)
	eo.spans.End(scanSpan)
	eo.recLogScan.Set(rep.LogScanTime.Seconds())
	redoSpan := eo.spans.Begin(obs.SpanRecRedoApply, recSpan, 0, 0)
	phaseBegan = time.Now()

	// Operation registry for logical redo (built-ins plus custom ops the
	// caller supplied; they must match the writing engine's).
	ops := builtinOps()
	for code, fn := range p.Operations {
		ops[code] = fn
	}

	touched := make([]bool, st.NumSegments())
	truncateAt := reader.FileOffset(validEnd)
	err = applyRedoPartitioned(ctx, reader, st, ops, committed, par,
		p.Storage.RecordBytes, touched, rep, eo)
	cerr := reader.Close()
	if err != nil {
		return nil, nil, errors.Join(fmt.Errorf("engine: recovery: redo: %w", err), cerr)
	}
	if cerr != nil {
		return nil, nil, fmt.Errorf("engine: recovery: close log reader: %w", cerr)
	}

	// Discard the torn tail so the re-opened log appends cleanly. Only
	// ever shrink: on a zero-byte log (created but never written) the
	// intact-end offset lies past the physical end, and extending the file
	// would manufacture a garbage header.
	if fi, serr := os.Stat(logPath); serr == nil && fi.Size() > truncateAt {
		rep.TornTailBytes = fi.Size() - truncateAt
		if err := faultfs.Or(p.FS).Truncate(logPath, truncateAt); err != nil {
			return nil, nil, fmt.Errorf("engine: recovery: truncate torn tail: %w", err)
		}
	}
	rep.RedoApplyTime = time.Since(phaseBegan)
	eo.spans.End(redoSpan)
	eo.recRedoApply.Set(rep.RedoApplyTime.Seconds())
	lg, err := wal.Open(logPath, wal.Options{
		StableTail:    p.StableTail,
		SyncOnFlush:   p.SyncOnFlush,
		FlushInterval: p.LogFlushInterval,
		FS:            p.FS,
		Metrics:       eo.walMetrics,
	})
	if err != nil {
		return nil, nil, err
	}

	// Reconstruct per-segment checkpoint bookkeeping.
	nextCkpt := uint64(1)
	for c := 0; c < storage.NumBackupCopies; c++ {
		if ci := bs.CopyInfo(c); ci.ID >= nextCkpt {
			nextCkpt = ci.ID + 1
		}
	}
	clock0 := info.Timestamp + 1
	if !rep.UsedCheckpoint {
		clock0 = 1
	}
	e := newEngine(p, st, lg, bs, nextCkpt, clock0, eo)
	e.txnSeq.Store(maxTxnID)
	other := 1 - copyIdx
	for i := 0; i < st.NumSegments(); i++ {
		seg := st.Seg(i)
		// Recovery is single-threaded here (the engine has not started),
		// so the latch is uncontended; held for the guarded_by invariant.
		seg.Lock()
		if touched[i] {
			// Replayed content is durable (it came from the log), so
			// flushing it to either copy needs no further LSN wait.
			seg.LastLSN = validEnd
		}
		if rep.UsedCheckpoint {
			seg.Dirty[copyIdx] = touched[i]
			// The other (older) copy may be stale for any segment that was
			// ever written into the recovered copy; be conservative.
			seg.Dirty[other] = touched[i] || writtenBy[i] != 0
		} else {
			seg.Dirty[0] = touched[i]
			seg.Dirty[1] = touched[i]
		}
		seg.Unlock()
	}
	rep.Elapsed = time.Since(started)
	eo.spans.End(recSpan)
	eo.recTotal.Set(rep.Elapsed.Seconds())
	ok = true
	e.start()
	return e, rep, nil
}

// applyRedoRecord applies one committed redo record — a physical
// after-image or a logical operation — to the store, using recBuf as the
// logical-op scratch buffer. It reports whether the record was logical.
func applyRedoRecord(st *storage.Store, ops map[OpCode]OpFunc, rec *wal.Record, recBuf []byte) (logical bool, err error) {
	switch rec.Type {
	case wal.TypeUpdate:
		if aerr := st.WriteRecordRaw(rec.RecordID, rec.Data); aerr != nil {
			return false, fmt.Errorf("apply update of record %d: %w", rec.RecordID, aerr)
		}
	case wal.TypeLogicalUpdate:
		fn := ops[OpCode(rec.OpCode)]
		if fn == nil {
			return false, fmt.Errorf("replay logical update of record %d: %w (code %d); pass the operation in Params.Operations",
				rec.RecordID, ErrUnknownOperation, rec.OpCode)
		}
		if aerr := st.ReadRecord(rec.RecordID, recBuf); aerr != nil {
			return false, fmt.Errorf("replay logical update of record %d: %w", rec.RecordID, aerr)
		}
		if aerr := fn(recBuf, rec.Data); aerr != nil {
			return false, fmt.Errorf("replay logical update of record %d: %w", rec.RecordID, aerr)
		}
		if aerr := st.WriteRecordRaw(rec.RecordID, recBuf); aerr != nil {
			return false, fmt.Errorf("replay logical update of record %d: %w", rec.RecordID, aerr)
		}
		return true, nil
	}
	return false, nil
}

// loadBackupStriped reads the backup copy with one reader goroutine per
// contiguous segment stripe (DESIGN.md §15). Stripes are disjoint, each
// reader owns its buffer, and LoadSegment targets distinct segments, so
// the loaded image is byte-identical at any stripe count. One stripe
// reads on the calling goroutine (fanOut).
func loadBackupStriped(ctx context.Context, bs backup.Store, st *storage.Store, copyIdx, par, segBytes int, writtenBy []uint64, rep *RecoveryReport) error {
	n := st.NumSegments()
	stripes := min(par, n)
	type stripeResult struct {
		loaded int
		bytes  int64
		err    error
	}
	res := make([]stripeResult, stripes)
	fanOut(stripes, func(s int) {
		lo, hi := s*n/stripes, (s+1)*n/stripes
		buf := make([]byte, segBytes)
		r := &res[s]
		for i := lo; i < hi; i++ {
			// Cancellation point between segments, never mid-segment: a
			// partially loaded stripe is fine because the engine is never
			// returned on error.
			if err := ctx.Err(); err != nil {
				r.err = err
				return
			}
			wb, err := bs.ReadSegment(copyIdx, i, buf)
			if err != nil {
				r.err = err
				return
			}
			writtenBy[i] = wb
			if wb == 0 {
				continue
			}
			r.loaded++
			r.bytes += int64(segBytes)
			if err := st.LoadSegment(i, buf); err != nil {
				r.err = err
				return
			}
		}
	})
	for s := range res {
		rep.SegmentsLoaded += res[s].loaded
		rep.BackupBytesRead += res[s].bytes
		if res[s].err != nil {
			return res[s].err
		}
	}
	return nil
}

// applyRedoPartitioned is the redo phase (DESIGN.md §15): the log is
// scanned exactly once by this goroutine, which filters for committed
// updates and routes each to a worker chosen by segment range. All
// records of one segment reach the same worker in log order, so
// last-in-log-wins per record is preserved and the applied image is
// byte-identical at any worker count. Workers that hit an error keep
// draining their channel (recording only the first), so the scanner never
// blocks on a full channel of a dead worker.
func applyRedoPartitioned(ctx context.Context, reader *wal.Reader, st *storage.Store, ops map[OpCode]OpFunc,
	committed map[uint64]bool, par, recordBytes int, touched []bool,
	rep *RecoveryReport, eo *engineObs) error {
	n := st.NumSegments()
	workers := min(par, n)
	type applyResult struct {
		applied, logical int
		err              error
	}
	res := make([]applyResult, workers)
	chans := make([]chan *wal.Record, workers)
	for w := range chans {
		chans[w] = make(chan *wal.Record, 256)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			began := time.Now()
			recBuf := make([]byte, recordBytes)
			r := &res[w]
			for rec := range chans[w] {
				if r.err != nil {
					continue
				}
				logical, err := applyRedoRecord(st, ops, rec, recBuf)
				if err != nil {
					r.err = err
					continue
				}
				if logical {
					r.logical++
				}
				touched[st.SegmentIndexOf(rec.RecordID)] = true
				r.applied++
			}
			eo.recApplyH.ObserveSince(began)
			eo.recApplyRecsH.Observe(uint64(r.applied))
		}(w)
	}
	// The scanner is the only cancellation point: it stops routing and
	// the closed channels below let the workers drain and exit, so
	// cancellation keeps the normal join discipline.
	scanErr := reader.Scan(rep.ScanStartLSN, func(e wal.Entry) error {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		switch e.Rec.Type {
		case wal.TypeUpdate, wal.TypeLogicalUpdate:
			if !committed[e.Rec.TxnID] {
				rep.UpdatesDiscarded++
				return nil
			}
			// The reader allocates a fresh Record per entry, so e.Rec can
			// cross the channel without copying.
			chans[st.SegmentIndexOf(e.Rec.RecordID)*workers/n] <- e.Rec
		}
		return nil
	})
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	for w := range res {
		rep.UpdatesApplied += res[w].applied
		rep.LogicalReplayed += res[w].logical
		if scanErr == nil && res[w].err != nil {
			scanErr = res[w].err
		}
	}
	return scanErr
}
