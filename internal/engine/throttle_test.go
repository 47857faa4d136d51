package engine

import (
	"testing"
	"time"

	"mmdb/internal/simdisk"
)

func TestThrottleValidation(t *testing.T) {
	th := &Throttle{Disks: simdisk.Default(), Speedup: 0.5}
	if err := th.validate(); err == nil {
		t.Error("speedup < 1 accepted")
	}
	th = &Throttle{Disks: simdisk.Model{}, Speedup: 10}
	if err := th.validate(); err == nil {
		t.Error("invalid disk model accepted")
	}
	p := testParams(t, FuzzyCopy)
	p.CheckpointThrottle = &Throttle{Disks: simdisk.Default(), Speedup: 0}
	if _, err := Open(p); err == nil {
		t.Error("invalid throttle accepted by Open")
	}
}

func TestThrottleDelayMath(t *testing.T) {
	th := &Throttle{Disks: simdisk.Default(), Speedup: 1}
	// One 8192-word (32768-byte) segment costs the flushing worker one
	// device service time: 30ms + 8192·3µs = 54.576 ms.
	got := th.delayPerSegment(32768)
	want := 30*time.Millisecond + 8192*3*time.Microsecond
	if want != 54576*time.Microsecond || got != want {
		t.Errorf("delay = %v, want %v", got, want)
	}
	th.Speedup = 1000
	if got := th.delayPerSegment(32768); got != want/1000 {
		t.Errorf("speedup delay = %v, want %v", got, want/1000)
	}
}

// TestThrottlePacesCheckpoints: a throttled full checkpoint must take at
// least the modeled time; unthrottled is far faster.
func TestThrottlePacesCheckpoints(t *testing.T) {
	run := func(th *Throttle) time.Duration {
		p := testParams(t, FastFuzzy)
		p.StableTail = true
		p.Full = true
		p.CheckpointThrottle = th
		e := mustOpen(t, p)
		defer e.Close()
		res, err := e.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if res.SegmentsFlushed != e.NumSegments() {
			t.Fatalf("flushed %d", res.SegmentsFlushed)
		}
		return res.Duration
	}
	// 32 segments of 256 B = 64 words each: modeled delay/segment at
	// speedup 100 is (30ms + 64·3µs)/100 ≈ 302 µs → ≥ 9.7 ms total.
	th := &Throttle{Disks: simdisk.Default(), Speedup: 100}
	perSeg := th.delayPerSegment(256)
	throttled := run(th)
	minWant := time.Duration(32) * perSeg
	if throttled < minWant {
		t.Errorf("throttled checkpoint took %v, want >= %v", throttled, minWant)
	}
}
