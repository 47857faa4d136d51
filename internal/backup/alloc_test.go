package backup

import (
	"bytes"
	"errors"
	"testing"
)

// TestReadSegmentAllocationFree pins ReadSegment at zero heap allocations
// per call when the caller reuses a ReadBuffer, for both stores and for
// written and never-written slots. Recovery's striped backup load reads
// every segment this way. It also checks that a read into the buffer's
// spare capacity still returns the segment exactly and catches a torn
// slot.
func TestReadSegmentAllocationFree(t *testing.T) {
	fs := openTest(t, t.TempDir())
	defer fs.Close()
	ms, err := NewMemStore(testSegs, testSegBytes)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Store{fs, ms} {
		img := segImage(0x3C)
		if err := s.WriteSegment(0, 2, 7, img); err != nil {
			t.Fatal(err)
		}
		buf := s.ReadBuffer()
		if len(buf) != testSegBytes {
			t.Fatalf("%T: ReadBuffer len %d, want %d", s, len(buf), testSegBytes)
		}
		for _, idx := range []int{2, 5} { // written, never written
			read := func() {
				if _, err := s.ReadSegment(0, idx, buf); err != nil {
					t.Fatal(err)
				}
			}
			read()
			if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
				t.Errorf("%T: ReadSegment of slot %d: %v allocs/op, want 0", s, idx, allocs)
			}
		}
		wb, err := s.ReadSegment(0, 2, buf)
		if err != nil || wb != 7 || !bytes.Equal(buf, img) {
			t.Errorf("%T: reused-buffer read = (%d, %v), image equal %v; want (7, nil), true", s, wb, err, bytes.Equal(buf, img))
		}
	}

	// A torn slot read through the spare capacity still fails its
	// checksum.
	if err := fs.WriteSegment(1, 0, 3, segImage(0x11)); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.files[1].WriteAt([]byte{0xEE}, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadSegment(1, 0, fs.ReadBuffer()); !errors.Is(err, ErrBadSegment) {
		t.Errorf("torn slot read through ReadBuffer = %v, want ErrBadSegment", err)
	}
}
