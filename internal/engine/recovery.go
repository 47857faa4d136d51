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
	// BackupLoadTime is the striped backup read. LogScanTime is the one
	// log pass: read, decode, hold and dispatch committed updates, with
	// the redo workers applying concurrently. RedoApplyTime is the drain
	// of the redo workers after the pass, plus the torn-tail truncation.
	BackupLoadTime time.Duration
	LogScanTime    time.Duration
	RedoApplyTime  time.Duration
}

// Recover rebuilds the primary database from the backup store and the log
// (Section 3.3): it reads the most recent complete backup copy into main
// memory, then reads the log once, forward, applying the after-images of
// committed transactions from the checkpoint's scan-start position in
// commit order. It returns a running engine.
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
		err = loadBackupStriped(ctx, bs, st, copyIdx, par, writtenBy, rep)
		if err != nil {
			return nil, nil, fmt.Errorf("engine: recovery: load backup copy %d: %w", copyIdx, err)
		}
	}
	rep.BackupLoadTime = time.Since(phaseBegan)
	eo.spans.End(loadSpan)
	eo.recBackupLoad.Set(rep.BackupLoadTime.Seconds())

	// Read the log in one forward pass from its base (scanLog). The redo
	// workers apply committed updates while it reads; LogScanTime is the
	// pass, RedoApplyTime the drain of the workers after it.
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
	// Operation registry for logical redo (built-ins plus custom ops the
	// caller supplied; they must match the writing engine's).
	ops := builtinOps()
	for code, fn := range p.Operations {
		ops[code] = fn
	}
	touched := make([]bool, st.NumSegments())
	rd := startRedo(st, ops, par, p.Storage.RecordBytes, touched, eo)
	var ck *backup.CheckpointInfo
	if rep.UsedCheckpoint {
		ck = &info
	}
	maxTxnID, validEnd, err := scanLog(ctx, reader, ck, rd, rep)
	rep.LogScanTime = time.Since(phaseBegan)
	eo.spans.End(scanSpan)
	eo.recLogScan.Set(rep.LogScanTime.Seconds())

	redoSpan := eo.spans.Begin(obs.SpanRecRedoApply, recSpan, 0, 0)
	phaseBegan = time.Now()
	if werr := rd.finish(rep); err == nil {
		err = werr
	}
	truncateAt := reader.FileOffset(validEnd)
	cerr := reader.Close()
	if err != nil {
		return nil, nil, errors.Join(fmt.Errorf("engine: recovery: %w", err), cerr)
	}
	if cerr != nil {
		return nil, nil, fmt.Errorf("engine: recovery: close log reader: %w", cerr)
	}
	rep.LogEndLSN = validEnd

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

// loadBackupStriped reads the backup copy with one reader goroutine per
// contiguous segment stripe (DESIGN.md §15). Stripes are disjoint, each
// reader owns its buffer, and LoadSegment targets distinct segments, so
// the loaded image is byte-identical at any stripe count. One stripe
// reads on the calling goroutine (fanOut).
func loadBackupStriped(ctx context.Context, bs backup.Store, st *storage.Store, copyIdx, par int, writtenBy []uint64, rep *RecoveryReport) error {
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
		buf := bs.ReadBuffer()
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
			r.bytes += int64(len(buf))
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

// scanLog is the log half of recovery (DESIGN.md §15.2): one forward
// pass over the whole surviving log from its base. Over the whole log it
// tracks the highest transaction ID (the re-opened engine must issue IDs
// above every ID still visible, or a new committed transaction could share
// an ID with an old aborted one and a later recovery would replay the
// aborted records) and the intact end. From the checkpoint's scan start it
// holds each transaction's updates until its commit record, then hands
// them to the redo workers; updates of aborted transactions, and of
// transactions with no commit before the torn tail, are discarded.
// Record X locks are held to commit, so commit order equals per-record
// log order and last-in-log still wins. When recovering from a
// checkpoint (ck non-nil), the record at ck.BeginLSN must be that
// checkpoint's begin marker and agree with the metadata on the scan
// start — the forward form of the paper's backward scan to the marker.
func scanLog(ctx context.Context, reader *wal.Reader, ck *backup.CheckpointInfo, rd *redo, rep *RecoveryReport) (maxTxnID uint64, validEnd wal.LSN, err error) {
	start := rep.ScanStartLSN
	validEnd = reader.Base()
	if start.Before(validEnd) {
		return 0, validEnd, fmt.Errorf("log scan from %d: %w (base %d)", start, wal.ErrCompacted, validEnd)
	}
	pending := make(map[uint64]*redoBuf)
	var spare []*redoBuf
	markerSeen := false
	err = reader.Scan(reader.Base(), func(e wal.Entry) error {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		validEnd = e.Next
		rec := e.Rec
		maxTxnID = max(maxTxnID, rec.TxnID)
		if ck != nil && !markerSeen && ck.BeginLSN.Before(e.Next) {
			if e.LSN != ck.BeginLSN || rec.Type != wal.TypeBeginCheckpoint || rec.CheckpointID != ck.ID {
				return fmt.Errorf("no begin-checkpoint marker for checkpoint %d at LSN %d (record there: %v of checkpoint %d at %d)",
					ck.ID, ck.BeginLSN, rec.Type, rec.CheckpointID, e.LSN)
			}
			if ms := markerScanStart(e); ms != ck.ScanStartLSN {
				return fmt.Errorf("marker/metadata mismatch: marker at %d (scan %d), metadata says %d (scan %d)",
					e.LSN, ms, ck.BeginLSN, ck.ScanStartLSN)
			}
			markerSeen = true
		}
		if e.LSN.Before(start) {
			if start.Before(e.Next) {
				return fmt.Errorf("scan start %d falls inside the record at %d", start, e.LSN)
			}
			return nil
		}
		rep.RecordsScanned++
		rep.LogBytesRead += e.Next.Sub(e.LSN)
		switch rec.Type {
		case wal.TypeUpdate, wal.TypeLogicalUpdate:
			b := pending[rec.TxnID]
			if b == nil {
				if n := len(spare); n > 0 {
					b, spare = spare[n-1], spare[:n-1]
				} else {
					b = new(redoBuf)
				}
				pending[rec.TxnID] = b
			}
			b.add(rec.Type, rec.OpCode, rec.RecordID, rec.Data)
		case wal.TypeCommit:
			rep.TxnsReplayed++
			if b := pending[rec.TxnID]; b != nil {
				rd.dispatch(b)
				delete(pending, rec.TxnID)
				b.reset()
				spare = append(spare, b)
			}
		case wal.TypeAbort:
			if b := pending[rec.TxnID]; b != nil {
				rep.UpdatesDiscarded += len(b.recs)
				delete(pending, rec.TxnID)
				b.reset()
				spare = append(spare, b)
			}
		}
		return nil
	})
	if err != nil {
		return maxTxnID, validEnd, fmt.Errorf("log scan: %w", err)
	}
	if ck != nil && !markerSeen {
		return maxTxnID, validEnd, fmt.Errorf("begin-checkpoint marker for checkpoint %d (LSN %d) not in the intact log [%d,%d)",
			ck.ID, ck.BeginLSN, reader.Base(), validEnd)
	}
	for _, b := range pending {
		rep.UpdatesDiscarded += len(b.recs)
	}
	return maxTxnID, validEnd, nil
}

// markerScanStart is where a forward redo scan must begin for the
// begin-checkpoint marker e: the marker itself, or the first LSN of the
// oldest transaction active when the checkpoint began, if earlier.
func markerScanStart(e wal.Entry) wal.LSN {
	s := e.LSN
	for _, at := range e.Rec.ActiveTxns {
		s = wal.MinLSN(s, at.FirstLSN)
	}
	return s
}

// redoRec is one held redo record: the update's fields, with its after
// image or operand at data[off:off+n] of the buffer holding it.
type redoRec struct {
	typ      wal.RecordType
	op       uint16
	recordID uint64
	off, n   int
}

// redoBuf is a run of held redo records and their bytes, copied out of
// the log reader's reused decode buffer: a pending transaction's updates,
// or a batch bound for one redo worker. Both are recycled, so a recovery
// allocates them only until the high-water mark of transactions in flight.
type redoBuf struct {
	recs []redoRec
	data []byte
}

func (b *redoBuf) add(typ wal.RecordType, op uint16, recordID uint64, data []byte) {
	b.recs = append(b.recs, redoRec{typ: typ, op: op, recordID: recordID, off: len(b.data), n: len(data)})
	b.data = append(b.data, data...)
}

// bytes returns rr's after image or operand.
func (b *redoBuf) bytes(rr redoRec) []byte { return b.data[rr.off : rr.off+rr.n] }

func (b *redoBuf) reset() {
	b.recs = b.recs[:0]
	b.data = b.data[:0]
}

// redoBatchRecords is how many records the scanner gathers for one
// worker before handing the batch over.
const redoBatchRecords = 256

// redo is the partitioned redo apply (DESIGN.md §15): the scanner routes
// each committed update to the worker owning its segment range, in batches
// of redoBatchRecords. All records of one segment reach the same worker in
// dispatch order, so the applied image is byte-identical at any worker
// count. Workers that hit an error keep draining their channel (recording
// only the first), so the scanner never blocks on a full channel of a
// dead worker; cancellation is the scanner's, and closing the channels in
// finish lets the workers drain and exit.
type redo struct {
	st      *storage.Store
	n       int
	batches []*redoBuf        // per worker, being filled
	chans   []chan *redoBuf   // per worker, filled batches
	free    chan *redoBuf     // applied batches, back to the scanner
	res     []redoWorkerStats // per worker, read after wg.Wait
	wg      sync.WaitGroup
}

type redoWorkerStats struct {
	applied, logical int
	err              error
}

// startRedo starts min(par, segments) redo workers.
func startRedo(st *storage.Store, ops map[OpCode]OpFunc, par, recordBytes int, touched []bool, eo *engineObs) *redo {
	n := st.NumSegments()
	workers := min(par, n)
	// Each worker's channel queues two batches, so the scanner fills the
	// next while the worker applies one with one more waiting. A worker
	// thus has at most four batches in circulation (filling, two queued,
	// applying), and free holds them all, so a returned batch is never
	// dropped.
	rd := &redo{
		st:      st,
		n:       n,
		batches: make([]*redoBuf, workers),
		chans:   make([]chan *redoBuf, workers),
		free:    make(chan *redoBuf, 4*workers),
		res:     make([]redoWorkerStats, workers),
	}
	rd.wg.Add(workers)
	for w := range workers {
		rd.batches[w] = new(redoBuf)
		rd.chans[w] = make(chan *redoBuf, 2)
		// goleak:joins finish closes the channels and waits on rd.wg
		go func(w int) {
			defer rd.wg.Done()
			began := time.Now()
			recBuf := make([]byte, recordBytes)
			r := &rd.res[w]
			for b := range rd.chans[w] {
				for _, rr := range b.recs {
					if r.err != nil {
						break
					}
					logical, err := applyRedoRecord(st, ops, rr, b.bytes(rr), recBuf)
					if err != nil {
						r.err = err
						break
					}
					if logical {
						r.logical++
					}
					touched[st.SegmentIndexOf(rr.recordID)] = true
					r.applied++
				}
				b.reset()
				select {
				case rd.free <- b:
				default:
				}
			}
			eo.recApplyH.ObserveSince(began)
			eo.recApplyRecsH.Observe(uint64(r.applied))
		}(w)
	}
	return rd
}

// dispatch routes a committed transaction's updates to their workers.
func (rd *redo) dispatch(txn *redoBuf) {
	workers := len(rd.batches)
	// ctxcheck:exempt(the workers drain their channels unconditionally, so a send waits only for batches already queued; the scanner checks ctx between records)
	for _, rr := range txn.recs {
		w := rd.st.SegmentIndexOf(rr.recordID) * workers / rd.n
		b := rd.batches[w]
		b.add(rr.typ, rr.op, rr.recordID, txn.bytes(rr))
		if len(b.recs) >= redoBatchRecords {
			rd.chans[w] <- b
			select {
			case rd.batches[w] = <-rd.free:
			default:
				rd.batches[w] = new(redoBuf)
			}
		}
	}
}

// finish hands over the partial batches, waits for the workers to drain,
// and adds their counts to rep. It returns the first worker error.
func (rd *redo) finish(rep *RecoveryReport) error {
	// ctxcheck:exempt(the join is mandatory: the workers drain their channels unconditionally and exit once they are closed)
	for w, ch := range rd.chans {
		if len(rd.batches[w].recs) > 0 {
			ch <- rd.batches[w]
		}
		close(ch)
	}
	rd.wg.Wait()
	var err error
	for w := range rd.res {
		rep.UpdatesApplied += rd.res[w].applied
		rep.LogicalReplayed += rd.res[w].logical
		if err == nil {
			err = rd.res[w].err
		}
	}
	if err != nil {
		return fmt.Errorf("redo: %w", err)
	}
	return nil
}

// applyRedoRecord applies one committed redo record — a physical
// after-image or a logical operation with operand data — to the store,
// using recBuf as the logical-op scratch buffer. It reports whether the
// record was logical.
func applyRedoRecord(st *storage.Store, ops map[OpCode]OpFunc, rr redoRec, data, recBuf []byte) (logical bool, err error) {
	switch rr.typ {
	case wal.TypeUpdate:
		if aerr := st.WriteRecordRaw(rr.recordID, data); aerr != nil {
			return false, fmt.Errorf("apply update of record %d: %w", rr.recordID, aerr)
		}
	case wal.TypeLogicalUpdate:
		fn := ops[OpCode(rr.op)]
		if fn == nil {
			return false, fmt.Errorf("replay logical update of record %d: %w (code %d); pass the operation in Params.Operations",
				rr.recordID, ErrUnknownOperation, rr.op)
		}
		if aerr := st.ReadRecord(rr.recordID, recBuf); aerr != nil {
			return false, fmt.Errorf("replay logical update of record %d: %w", rr.recordID, aerr)
		}
		if aerr := fn(recBuf, data); aerr != nil {
			return false, fmt.Errorf("replay logical update of record %d: %w", rr.recordID, aerr)
		}
		if aerr := st.WriteRecordRaw(rr.recordID, recBuf); aerr != nil {
			return false, fmt.Errorf("replay logical update of record %d: %w", rr.recordID, aerr)
		}
		return true, nil
	}
	return false, nil
}
