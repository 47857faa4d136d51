package wal

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func tempLogPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "test.log")
}

func mustOpen(t *testing.T, path string, opts Options) *Log {
	t.Helper()
	l, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []*Record{
		{Type: TypeUpdate, TxnID: 7, RecordID: 42, Data: []byte("hello")},
		{Type: TypeUpdate, TxnID: 1, RecordID: 0, Data: []byte{}},
		{Type: TypeCommit, TxnID: 99},
		{Type: TypeAbort, TxnID: 3},
		{Type: TypeBeginCheckpoint, CheckpointID: 5, Timestamp: 123, TargetCopy: 1, Algorithm: 4,
			ActiveTxns: []ActiveTxn{{TxnID: 9, FirstLSN: 100}, {TxnID: 11, FirstLSN: NilLSN}}},
		{Type: TypeBeginCheckpoint, CheckpointID: 6, Timestamp: 1},
		{Type: TypeEndCheckpoint, CheckpointID: 5, TargetCopy: 1},
	}
	for i, rec := range cases {
		enc, err := appendEncoded(nil, rec)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		wantLen, err := EncodedLen(rec)
		if err != nil {
			t.Fatalf("case %d: EncodedLen: %v", i, err)
		}
		if len(enc) != wantLen {
			t.Errorf("case %d: encoded %d bytes, EncodedLen says %d", i, len(enc), wantLen)
		}
		got := new(Record)
		n, err := decodeFrom(enc, got)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if n != len(enc) {
			t.Errorf("case %d: decode consumed %d of %d", i, n, len(enc))
		}
		normalize := func(r *Record) *Record {
			cp := *r
			if cp.Data == nil {
				cp.Data = []byte{}
			}
			if cp.ActiveTxns == nil {
				cp.ActiveTxns = []ActiveTxn{}
			}
			return &cp
		}
		if rec.Type == TypeUpdate || rec.Type == TypeBeginCheckpoint {
			if !reflect.DeepEqual(normalize(got), normalize(rec)) {
				t.Errorf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, got, rec)
			}
		} else if got.Type != rec.Type || got.TxnID != rec.TxnID || got.CheckpointID != rec.CheckpointID {
			t.Errorf("case %d: round trip mismatch: got %+v want %+v", i, got, rec)
		}
	}
}

func TestEncodeUnknownTypeFails(t *testing.T) {
	if _, err := appendEncoded(nil, &Record{Type: RecordType(200)}); err == nil {
		t.Fatal("expected error for unknown record type")
	}
	if _, err := EncodedLen(&Record{Type: RecordType(0)}); err == nil {
		t.Fatal("expected error from EncodedLen for unknown type")
	}
}

// TestUpdateRoundTripQuick property-tests the update-record codec over
// arbitrary payloads.
func TestUpdateRoundTripQuick(t *testing.T) {
	f := func(txn, rid uint64, data []byte) bool {
		rec := &Record{Type: TypeUpdate, TxnID: txn, RecordID: rid, Data: data}
		enc, err := appendEncoded(nil, rec)
		if err != nil {
			return false
		}
		var got Record
		n, err := decodeFrom(enc, &got)
		if err != nil || n != len(enc) {
			return false
		}
		return got.TxnID == txn && got.RecordID == rid && bytes.Equal(got.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeCorruptionQuick property-tests that any single-byte corruption
// of an encoded record is detected (CRC or framing).
func TestDecodeCorruptionQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := &Record{Type: TypeUpdate, TxnID: 5, RecordID: 10, Data: []byte("payload-bytes")}
	enc, err := appendEncoded(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 500; trial++ {
		pos := rng.Intn(len(enc))
		delta := byte(1 + rng.Intn(255))
		mut := append([]byte(nil), enc...)
		mut[pos] ^= delta
		var got Record
		if _, err := decodeFrom(mut, &got); err == nil {
			// Corruptions of the trailing length copy are only caught by
			// the trailer check; all were included. A successful decode
			// must at least reproduce the record exactly (it cannot, since
			// a bit changed within the framed bytes).
			t.Fatalf("corruption at byte %d (^%#x) went undetected: %+v", pos, delta, got)
		}
	}
}

func TestAppendFlushDurability(t *testing.T) {
	path := tempLogPath(t)
	l := mustOpen(t, path, Options{})
	start, end, err := l.Append(&Record{Type: TypeCommit, TxnID: 1})
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if start != 0 {
		t.Errorf("first record LSN = %d, want 0", start)
	}
	if l.Durable(end) {
		t.Error("record durable before flush on volatile tail")
	}
	if err := l.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if !l.Durable(end) {
		t.Error("record not durable after flush")
	}
	if l.DurableLSN() != end {
		t.Errorf("DurableLSN = %d, want %d", l.DurableLSN(), end)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, _, err := l.Append(&Record{Type: TypeCommit, TxnID: 2}); err != ErrClosed {
		t.Errorf("Append after Close: err = %v, want ErrClosed", err)
	}
}

func TestStableTailDurableImmediately(t *testing.T) {
	l := mustOpen(t, tempLogPath(t), Options{StableTail: true})
	defer l.Close()
	_, end, err := l.Append(&Record{Type: TypeCommit, TxnID: 1})
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if !l.Durable(end) {
		t.Error("stable-tail append not immediately durable")
	}
	if err := l.WaitDurable(end); err != nil {
		t.Errorf("WaitDurable on stable tail: %v", err)
	}
}

func TestWaitDurableFlushesInline(t *testing.T) {
	l := mustOpen(t, tempLogPath(t), Options{})
	defer l.Close()
	_, end, err := l.Append(&Record{Type: TypeCommit, TxnID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(end); err != nil {
		t.Fatalf("WaitDurable: %v", err)
	}
	if !l.Durable(end) {
		t.Error("WaitDurable returned but record not durable")
	}
}

func TestCrashLosesVolatileTail(t *testing.T) {
	path := tempLogPath(t)
	l := mustOpen(t, path, Options{})
	_, end1, err := l.Append(&Record{Type: TypeCommit, TxnID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append(&Record{Type: TypeCommit, TxnID: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if LSN(fi.Size()) != end1+fileHeaderSize {
		t.Errorf("after crash file size = %d, want header + flushed watermark %d", fi.Size(), end1+fileHeaderSize)
	}
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var txns []uint64
	if err := r.Scan(0, func(e Entry) error {
		txns = append(txns, e.Rec.TxnID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(txns) != 1 || txns[0] != 1 {
		t.Errorf("after crash surviving txns = %v, want [1]", txns)
	}
}

func TestCrashKeepsStableTail(t *testing.T) {
	path := tempLogPath(t)
	l := mustOpen(t, path, Options{StableTail: true})
	if _, _, err := l.Append(&Record{Type: TypeCommit, TxnID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append(&Record{Type: TypeCommit, TxnID: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Crash(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n := 0
	if err := r.Scan(0, func(Entry) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("stable-tail crash kept %d records, want 2", n)
	}
}

func writeRecords(t *testing.T, path string, recs []*Record) []LSN {
	t.Helper()
	l := mustOpen(t, path, Options{})
	lsns := make([]LSN, len(recs))
	for i, r := range recs {
		start, _, err := l.Append(r)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		lsns[i] = start
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return lsns
}

// TestForwardScan: a forward scan visits every record in log order and
// ends at the file end.
func TestForwardScan(t *testing.T) {
	path := tempLogPath(t)
	recs := []*Record{
		{Type: TypeUpdate, TxnID: 1, RecordID: 10, Data: []byte("a")},
		{Type: TypeBeginCheckpoint, CheckpointID: 1, Timestamp: 5},
		{Type: TypeCommit, TxnID: 1},
		{Type: TypeEndCheckpoint, CheckpointID: 1},
		{Type: TypeUpdate, TxnID: 2, RecordID: 11, Data: []byte("bb")},
	}
	writeRecords(t, path, recs)

	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var fwd []RecordType
	if err := r.Scan(0, func(e Entry) error {
		fwd = append(fwd, e.Rec.Type)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []RecordType{TypeUpdate, TypeBeginCheckpoint, TypeCommit, TypeEndCheckpoint, TypeUpdate}
	if !reflect.DeepEqual(fwd, want) {
		t.Errorf("forward scan = %v, want %v", fwd, want)
	}

	end, err := r.ValidEnd(0)
	if err != nil {
		t.Fatal(err)
	}
	if end != r.Size() {
		t.Errorf("ValidEnd = %d, want file size %d", end, r.Size())
	}

}

func TestTornTailStopsScan(t *testing.T) {
	path := tempLogPath(t)
	recs := []*Record{
		{Type: TypeCommit, TxnID: 1},
		{Type: TypeCommit, TxnID: 2},
	}
	writeRecords(t, path, recs)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record in half.
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n := 0
	if err := r.Scan(0, func(Entry) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("scan over torn log saw %d records, want 1", n)
	}
	end, err := r.ValidEnd(0)
	if err != nil {
		t.Fatal(err)
	}
	if end >= LSN(fi.Size()) {
		t.Errorf("ValidEnd %d should precede original size %d", end, fi.Size())
	}
}

func TestReopenAppends(t *testing.T) {
	path := tempLogPath(t)
	l := mustOpen(t, path, Options{})
	_, end1, err := l.Append(&Record{Type: TypeCommit, TxnID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, path, Options{})
	start2, _, err := l2.Append(&Record{Type: TypeCommit, TxnID: 2})
	if err != nil {
		t.Fatal(err)
	}
	if start2 != end1 {
		t.Errorf("reopened log appended at %d, want %d", start2, end1)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n := 0
	if err := r.Scan(0, func(Entry) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("reopened log has %d records, want 2", n)
	}
}

func TestConcurrentAppendersAssignDisjointLSNs(t *testing.T) {
	l := mustOpen(t, tempLogPath(t), Options{})
	defer l.Close()
	const goroutines = 8
	const perG = 200
	lsnCh := make(chan LSN, goroutines*perG)
	done := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for i := 0; i < perG; i++ {
				start, _, err := l.Append(&Record{Type: TypeUpdate, TxnID: uint64(g), RecordID: uint64(i), Data: []byte("x")})
				if err != nil {
					t.Errorf("append: %v", err)
				}
				lsnCh <- start
			}
			done <- struct{}{}
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		<-done
	}
	close(lsnCh)
	close(done)
	seen := make(map[LSN]bool)
	for lsn := range lsnCh {
		if seen[lsn] {
			t.Fatalf("duplicate LSN %d", lsn)
		}
		seen[lsn] = true
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Appends; got != goroutines*perG {
		t.Errorf("Appends = %d, want %d", got, goroutines*perG)
	}
}

func TestBackgroundFlusher(t *testing.T) {
	l := mustOpen(t, tempLogPath(t), Options{FlushInterval: time.Millisecond})
	defer l.Close()
	_, end, err := l.Append(&Record{Type: TypeCommit, TxnID: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !l.Durable(end) {
		if time.Now().After(deadline) {
			t.Fatal("background flusher never flushed")
		}
		time.Sleep(time.Millisecond)
	}
}
