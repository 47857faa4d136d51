package wal

import (
	"path/filepath"
	"testing"

	"mmdb/internal/obs"
)

// TestAppendAllocationFree pins Log.Append at zero heap allocations per
// record once the preallocated tail is warm: encodeInto writes the
// header, payload, and trailer directly into the tail buffer, and
// periodic flushes reset the tail's length while keeping its capacity.
func TestAppendAllocationFree(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "alloc.log"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	rec := &Record{Type: TypeUpdate, TxnID: 1, RecordID: 42, Data: make([]byte, 128)}
	flushEvery := 0
	appendOne := func() {
		if _, _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		// Flush well before the default tail fills so the measured
		// steady state never needs tail growth — mirroring the engine's
		// group-commit cadence.
		if flushEvery++; flushEvery == 64 {
			flushEvery = 0
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 128; i++ {
		appendOne()
	}
	allocs := testing.AllocsPerRun(1024, appendOne)
	if allocs != 0 {
		t.Errorf("Append: %v allocs/op, want 0", allocs)
	}
}

// TestAppendAllocationFreeTraced re-pins the zero-allocation contract
// with the full metrics hookup armed, including the commit-attribution
// histogram: the dual observation reuses a single pair of clock reads
// and both Observe calls are lock-free atomics.
func TestAppendAllocationFreeTraced(t *testing.T) {
	reg := obs.NewRegistry()
	m := &Metrics{
		AppendSeconds:       reg.Histogram("mmdb_wal_append_seconds", "", obs.ScaleNanosToSeconds),
		CommitAppendSeconds: reg.Histogram("mmdb_commit_attr_wal_append_seconds", "", obs.ScaleNanosToSeconds),
		FlushSeconds:        reg.Histogram("mmdb_wal_flush_seconds", "", obs.ScaleNanosToSeconds),
		FlushBatchBytes:     reg.Histogram("mmdb_wal_flush_batch_bytes", "", 1),
	}
	l, err := Open(filepath.Join(t.TempDir(), "alloc_traced.log"), Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	upd := &Record{Type: TypeUpdate, TxnID: 1, RecordID: 42, Data: make([]byte, 128)}
	com := &Record{Type: TypeCommit, TxnID: 1}
	flushEvery := 0
	appendOne := func() {
		if _, _, err := l.Append(upd); err != nil {
			t.Fatal(err)
		}
		if _, _, err := l.Append(com); err != nil {
			t.Fatal(err)
		}
		if flushEvery++; flushEvery == 32 {
			flushEvery = 0
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 128; i++ {
		appendOne()
	}
	allocs := testing.AllocsPerRun(1024, appendOne)
	if allocs != 0 {
		t.Errorf("Append with metrics: %v allocs/op, want 0", allocs)
	}
	if m.CommitAppendSeconds.Count() == 0 {
		t.Error("commit-attribution histogram observed nothing")
	}
	if m.AppendSeconds.Count() < 2*m.CommitAppendSeconds.Count() {
		t.Errorf("AppendSeconds count %d < 2× CommitAppendSeconds count %d; commit records must feed both",
			m.AppendSeconds.Count(), m.CommitAppendSeconds.Count())
	}
}

// TestScanAllocationIndependentOfLength pins Reader.Scan's allocations to
// a constant per scan: the read-ahead window and the reused decode
// target are allocated once per reader, not per window refill or per
// record, so scanning a 10k-record log costs the same allocations as a
// 1k-record one. The logs mix every record type the
// engine writes, including begin-checkpoint markers with active
// transactions, and span several read-ahead windows.
func TestScanAllocationIndependentOfLength(t *testing.T) {
	allocs := func(records int) float64 {
		path := filepath.Join(t.TempDir(), "scan.log")
		l, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 100)
		for i := 0; i < records; i++ {
			var rec *Record
			switch i % 10 {
			case 0:
				rec = &Record{Type: TypeBeginCheckpoint, CheckpointID: uint64(i), Timestamp: uint64(i),
					ActiveTxns: []ActiveTxn{{TxnID: uint64(i), FirstLSN: LSN(i)}, {TxnID: uint64(i + 1), FirstLSN: NilLSN}}}
			case 1:
				rec = &Record{Type: TypeEndCheckpoint, CheckpointID: uint64(i)}
			case 2:
				rec = &Record{Type: TypeLogicalUpdate, TxnID: uint64(i), RecordID: uint64(i), OpCode: 1, Data: data[:8]}
			case 9:
				rec = &Record{Type: TypeCommit, TxnID: uint64(i)}
			default:
				rec = &Record{Type: TypeUpdate, TxnID: uint64(i), RecordID: uint64(i), Data: data}
			}
			if _, _, err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if r.Size().Sub(r.Base()) < int64(records)*50 {
			t.Fatalf("log of %d records is only %d bytes", records, r.Size().Sub(r.Base()))
		}
		n := 0
		count := func(Entry) error { n++; return nil }
		// AllocsPerRun's warm-up scan fills the window and the decode
		// target once; the measured scans refill the same window.
		return testing.AllocsPerRun(10, func() {
			n = 0
			if err := r.Scan(r.Base(), count); err != nil {
				t.Fatal(err)
			}
			if n != records {
				t.Fatalf("scanned %d records, want %d", n, records)
			}
		})
	}
	small, large := allocs(1000), allocs(10000)
	if small != large {
		t.Errorf("Scan allocations: %v over 1k records, %v over 10k; want equal", small, large)
	}
}
