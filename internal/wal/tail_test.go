package wal

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// buildLog writes n small committed-transaction records and returns the
// log path and the end LSN of the flushed (durable) log.
func buildLog(t *testing.T, n int) (string, LSN) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "redo.log")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var end LSN
	for i := 0; i < n; i++ {
		_, end, err = l.Append(&Record{
			Type: TypeUpdate, TxnID: uint64(i + 1), RecordID: uint64(i),
			Data: []byte{0xAB, byte(i), 0xCD, byte(i >> 8)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path, end
}

// TestScanTailTruncated is the regression test for the torn-tail bug: a
// record frame cut off by the end of the file used to be reported as
// ErrCorrupt, indistinguishable from a checksum failure. It must be
// classified ErrTruncated, and the intact prefix must end exactly at the
// last whole record.
func TestScanTailTruncated(t *testing.T) {
	for _, cut := range []int64{1, 3, headerSize - 1, headerSize, headerSize + 2} {
		path, end := buildLog(t, 5)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		// Cut into the last record: [cut] bytes past its start.
		r0, err := OpenReader(path)
		if err != nil {
			t.Fatal(err)
		}
		var lastStart LSN
		if err := r0.Scan(r0.Base(), func(e Entry) error { lastStart = e.LSN; return nil }); err != nil {
			t.Fatal(err)
		}
		r0.Close()
		newSize := fi.Size() - (int64(end-lastStart) - cut)
		if err := os.Truncate(path, newSize); err != nil {
			t.Fatal(err)
		}

		r, err := OpenReader(path)
		if err != nil {
			t.Fatalf("cut %d: OpenReader: %v", cut, err)
		}
		got, terminal, err := r.ScanTail(r.Base(), nil)
		if err != nil {
			t.Fatalf("cut %d: ScanTail error: %v", cut, err)
		}
		if !errors.Is(terminal, ErrTruncated) {
			t.Fatalf("cut %d: terminal = %v, want ErrTruncated", cut, terminal)
		}
		if got != lastStart {
			t.Fatalf("cut %d: intact prefix ends at %d, want %d", cut, got, lastStart)
		}
		r.Close()
	}
}

// TestScanTailCorrupt: a complete final frame with a flipped payload byte
// must be classified ErrCorrupt, not truncation.
func TestScanTailCorrupt(t *testing.T) {
	path, end := buildLog(t, 5)
	r0, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	var lastStart LSN
	if err := r0.Scan(r0.Base(), func(e Entry) error { lastStart = e.LSN; return nil }); err != nil {
		t.Fatal(err)
	}
	off := r0.FileOffset(lastStart) + headerSize // first payload byte
	r0.Close()

	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, terminal, err := r.ScanTail(r.Base(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(terminal, ErrCorrupt) || errors.Is(terminal, ErrTruncated) {
		t.Fatalf("terminal = %v, want ErrCorrupt (and not ErrTruncated)", terminal)
	}
	if got != lastStart {
		t.Fatalf("intact prefix ends at %d, want %d", got, lastStart)
	}
	_ = end
}

// TestScanTailCleanEOF: an undamaged log terminates with io.EOF at its
// exact end.
func TestScanTailCleanEOF(t *testing.T) {
	path, end := buildLog(t, 3)
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, terminal, err := r.ScanTail(r.Base(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(terminal, io.EOF) {
		t.Fatalf("terminal = %v, want io.EOF", terminal)
	}
	if got != end {
		t.Fatalf("end = %d, want %d", got, end)
	}
}

// TestOpenReaderTornHeader is the regression test for the genesis-crash
// bug: a file shorter than its header (the very first write torn) used to
// surface as an untyped read error. It must be ErrBadHeader so recovery
// can treat the log as empty when no checkpoint references it.
func TestOpenReaderTornHeader(t *testing.T) {
	for _, size := range []int64{1, 8, fileHeaderSize - 1} {
		path := filepath.Join(t.TempDir(), "redo.log")
		full := encodeHeader(0)
		if err := os.WriteFile(path, full[:size], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenReader(path); !errors.Is(err, ErrBadHeader) {
			t.Fatalf("size %d: OpenReader = %v, want ErrBadHeader", size, err)
		}
	}
	// A corrupted full-size header is also ErrBadHeader.
	path := filepath.Join(t.TempDir(), "redo.log")
	h := encodeHeader(0)
	h[3] ^= 0x5A
	if err := os.WriteFile(path, h, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenReader(path); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("corrupt header: OpenReader = %v, want ErrBadHeader", err)
	}
}
