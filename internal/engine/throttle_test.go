package engine

import (
	"math"
	"testing"
	"time"

	"mmdb/analytic"
)

func TestThrottleValidation(t *testing.T) {
	for _, sp := range []float64{0.5, -1, math.NaN()} {
		p := testParams(t, FuzzyCopy)
		p.ThrottleSpeedup = sp
		if _, err := Open(p); err == nil {
			t.Errorf("ThrottleSpeedup %v accepted by Open", sp)
		}
	}
	for _, sp := range []float64{0, 1, 20} {
		p := testParams(t, FuzzyCopy)
		p.ThrottleSpeedup = sp
		if err := p.Validate(); err != nil {
			t.Errorf("ThrottleSpeedup %v rejected: %v", sp, err)
		}
	}
}

// TestThrottleDelayMath: each flushed segment is paced at the analytic
// model's single-device service time, T_seek + T_trans·(segBytes /
// WordBytes) at DefaultParams, divided by the speedup — to the
// nanosecond, so the throttle and the model ckptbench prices a throttled
// run with share one source.
func TestThrottleDelayMath(t *testing.T) {
	dp := analytic.DefaultParams()
	for _, c := range []struct {
		segBytes int
		speedup  float64
		want     time.Duration
	}{
		// 64 words: 30 ms + 64·3 µs.
		{256, 1, 30192 * time.Microsecond},
		{256, 20, 1509600 * time.Nanosecond},
		{256, 1000, 30192 * time.Nanosecond},
		// 1024 words: 30 ms + 1024·3 µs.
		{4096, 1, 33072 * time.Microsecond},
		{4096, 20, 1653600 * time.Nanosecond},
		{4096, 1000, 33072 * time.Nanosecond},
		// 8192 words, the paper's S_seg: 30 ms + 8192·3 µs.
		{32768, 1, 54576 * time.Microsecond},
		{32768, 20, 2728800 * time.Nanosecond},
		{32768, 1000, 54576 * time.Nanosecond},
	} {
		got := throttleDelay(c.segBytes, c.speedup)
		if got != c.want {
			t.Errorf("%d B at speedup %v: delay %v, want %v", c.segBytes, c.speedup, got, c.want)
		}
		words := float64(c.segBytes / analytic.WordBytes)
		model := time.Duration(math.Round((dp.TSeek + dp.TTrans*words) / c.speedup * 1e9))
		if got != model {
			t.Errorf("%d B at speedup %v: delay %v, model %v", c.segBytes, c.speedup, got, model)
		}
	}
}

// TestThrottlePacesCheckpoints: a throttled full checkpoint must take at
// least the modeled time; unthrottled is far faster.
func TestThrottlePacesCheckpoints(t *testing.T) {
	run := func(speedup float64) time.Duration {
		p := testParams(t, FastFuzzy)
		p.StableTail = true
		p.Full = true
		p.ThrottleSpeedup = speedup
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
	perSeg := throttleDelay(256, 100)
	throttled := run(100)
	minWant := time.Duration(32) * perSeg
	if throttled < minWant {
		t.Errorf("throttled checkpoint took %v, want >= %v", throttled, minWant)
	}
}
