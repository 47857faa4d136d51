package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// Reader scans a closed log file forward, the log half of the paper's
// recovery procedure (Section 3.3). It reads through a read-ahead window
// of readAheadBytes, refilled with one read per window rather than one
// per record, and decodes every record into one reused Record. A Reader
// is not safe for concurrent scans.
type Reader struct {
	f    *os.File
	base LSN // LSN at file offset fileHeaderSize
	end  LSN // LSN just past the last byte in the file

	// win holds the log bytes [winLSN, winLSN+len(win)).
	win    []byte
	winLSN LSN
	// rec is the decode target Scan reuses for every record.
	rec Record
}

// readAheadBytes is the read-ahead window: large enough that a scan
// issues one read per thousand or so typical redo records, small enough
// to stay in cache. A record larger than the window grows it to fit.
const readAheadBytes = 256 << 10

// ErrCompacted reports an attempt to read records that head compaction
// has dropped from the log file.
var ErrCompacted = errors.New("wal: requested LSN predates the compacted log head")

// ErrTruncated reports a record frame cut off by the end of the file: the
// signature of a torn tail, where a crash lost the unsynced suffix of an
// append. It is distinct from ErrCorrupt (a complete frame whose checksum
// or framing is wrong); recovery treats both as the end of the usable log,
// but diagnostics and tests need to tell them apart.
var ErrTruncated = errors.New("wal: record truncated at end of log")

// OpenReader opens the log file at path for scanning.
func OpenReader(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: open reader: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: stat reader: %w", err)
	}
	r := &Reader{f: f}
	if fi.Size() == 0 {
		// A log that was never opened for writing: empty, base 0.
		return r, nil
	}
	hdr := make([]byte, fileHeaderSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		f.Close()
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			// The file is shorter than a header: a crash tore the very
			// first write to a fresh log.
			return nil, fmt.Errorf("%w: file shorter than header", ErrBadHeader)
		}
		return nil, fmt.Errorf("wal: read header: %w", err)
	}
	base, err := decodeHeader(hdr)
	if err != nil {
		f.Close()
		return nil, err
	}
	r.base = base
	r.end = base
	if fi.Size() > fileHeaderSize {
		r.end = base + LSN(fi.Size()-fileHeaderSize)
	}
	return r, nil
}

// Close releases the reader.
func (r *Reader) Close() error { return r.f.Close() }

// Size returns the end LSN of the durable log.
func (r *Reader) Size() LSN { return r.end }

// Base returns the oldest LSN present in the file.
func (r *Reader) Base() LSN { return r.base }

// FileOffset translates an LSN into a byte offset in the log file (used
// by recovery to truncate a torn tail).
func (r *Reader) FileOffset(lsn LSN) int64 {
	return fileHeaderSize + int64(lsn-r.base)
}

// SectionReader returns a reader over the raw log bytes [from, to),
// used for archiving an intact log suffix.
func (r *Reader) SectionReader(from, to LSN) (*io.SectionReader, error) {
	if from < r.base {
		return nil, fmt.Errorf("%w: from %d < base %d", ErrCompacted, from, r.base)
	}
	if to < from || to > r.end {
		return nil, fmt.Errorf("wal: section [%d,%d) outside log [%d,%d)", from, to, r.base, r.end)
	}
	return io.NewSectionReader(r.f, r.FileOffset(from), int64(to-from)), nil
}

// window returns the log bytes [lsn, lsn+n), refilling the read-ahead
// window from lsn when they are not all in it. The caller has checked
// that lsn+n does not pass the end of the file; a file that shrank since
// OpenReader reads as a torn tail.
func (r *Reader) window(lsn LSN, n int) ([]byte, error) {
	if lsn >= r.winLSN && lsn+LSN(n) <= r.winLSN+LSN(len(r.win)) {
		off := int(lsn - r.winLSN)
		return r.win[off : off+n], nil
	}
	want := readAheadBytes
	if rest := r.end - lsn; LSN(want) > rest {
		want = int(rest)
	}
	want = max(want, n)
	if cap(r.win) < want {
		r.win = make([]byte, want)
	}
	k, err := r.f.ReadAt(r.win[:want], r.FileOffset(lsn))
	r.win, r.winLSN = r.win[:k], lsn
	if k < n {
		if err == nil || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrTruncated
		}
		return nil, err
	}
	return r.win[:n], nil
}

// decodeAt decodes the record starting at lsn into r.rec and returns the
// LSN of the following record.
func (r *Reader) decodeAt(lsn LSN) (LSN, error) {
	if lsn < r.base {
		return 0, fmt.Errorf("%w: lsn %d < base %d", ErrCompacted, lsn, r.base)
	}
	if lsn >= r.end {
		return 0, io.EOF
	}
	if r.end-lsn < headerSize {
		// The frame was cut off mid-header by a torn tail.
		return 0, ErrTruncated
	}
	hdr, err := r.window(lsn, headerSize)
	if err != nil {
		return 0, err
	}
	plen := int(uint32(hdr[0]) | uint32(hdr[1])<<8 | uint32(hdr[2])<<16 | uint32(hdr[3])<<24)
	if plen <= 0 || plen > MaxPayload {
		return 0, ErrCorrupt
	}
	total := headerSize + plen + trailerSize
	if lsn+LSN(total) > r.end {
		// The header is plausible but the frame runs past the end of the
		// file: the tail of the record was lost, not scribbled on.
		return 0, ErrTruncated
	}
	frame, err := r.window(lsn, total)
	if err != nil {
		return 0, err
	}
	n, err := decodeFrom(frame, &r.rec)
	if err != nil {
		return 0, err
	}
	return lsn + LSN(n), nil
}

// Entry pairs a decoded record with its position in the log. Rec is the
// reader's reused decode target: it and the bytes it points at are valid
// only during the scan callback, so a callback that keeps a record must
// copy it.
type Entry struct {
	LSN  LSN
	Next LSN
	Rec  *Record
}

// Scan invokes fn for each valid record from start in log order. Scanning
// stops at the first torn or corrupt record (the tail lost in a crash) or
// at end of file; neither is an error. fn may stop the scan early by
// returning a non-nil error, which Scan returns unchanged. The Entry's
// Rec is reused for the next record: fn must copy what it keeps.
func (r *Reader) Scan(start LSN, fn func(Entry) error) error {
	_, _, err := r.ScanTail(start, fn) //nolint:errcheckwal // the discarded terminal reason is a classification, not an error; err is returned
	return err
}

// ScanTail is Scan, but additionally reports where the intact prefix ends
// and why: io.EOF when the file ends cleanly on a record boundary,
// ErrTruncated when the last frame was cut off (a torn tail), ErrCorrupt
// when a complete frame fails its checksum or framing. The terminal reason
// is a classification, not a failure — the returned error is nil unless fn
// aborted the scan or a read failed outright.
func (r *Reader) ScanTail(start LSN, fn func(Entry) error) (end LSN, terminal error, err error) {
	lsn := start
	for {
		next, rerr := r.decodeAt(lsn)
		switch {
		case rerr == nil:
		case errors.Is(rerr, io.EOF), errors.Is(rerr, ErrTruncated), errors.Is(rerr, ErrCorrupt):
			return lsn, rerr, nil
		default:
			return lsn, rerr, rerr
		}
		if fn != nil {
			if ferr := fn(Entry{LSN: lsn, Next: next, Rec: &r.rec}); ferr != nil {
				return lsn, nil, ferr
			}
		}
		lsn = next
	}
}

// ValidEnd scans forward from start and returns the LSN just past the last
// valid record — the end of the intact log prefix.
func (r *Reader) ValidEnd(start LSN) (LSN, error) {
	end := start
	err := r.Scan(start, func(e Entry) error {
		end = e.Next
		return nil
	})
	return end, err
}
