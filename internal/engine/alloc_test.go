package engine

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mmdb/internal/obs"
)

// TestExecWriteAllocationFree pins the single-record write+commit path
// at zero heap allocations per operation: the transaction comes from
// the engine's spare slot, before-images from the per-txn freelist, and
// the WAL encode lands in the preallocated tail. A regression here
// breaks the perf:hotpath contract enforced by lint/alloccheck.
func TestExecWriteAllocationFree(t *testing.T) {
	e := mustOpen(t, testParams(t, FuzzyCopy))
	defer e.Close()

	val := encVal(7)
	// Warm up: first write takes the lazy allocations (txn, freelist,
	// lock table entries) that later writes reuse.
	for i := 0; i < 64; i++ {
		if err := e.ExecWrite(3, val); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(512, func() {
		if err := e.ExecWrite(3, val); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ExecWrite: %v allocs/op, want 0", allocs)
	}
}

// TestExecWriteAllocationFreeTraced re-pins the zero-allocation contract
// with the full observability surface armed: every transaction sampled
// by the span tracer (SpanSampleEvery 1) and the slow-op watchdog
// enabled. Span begin/end are atomic stores into the preallocated ring
// and the watchdog's under-threshold check is one atomic load, so
// tracing must not cost a single allocation on the hot path.
func TestExecWriteAllocationFreeTraced(t *testing.T) {
	p := testParams(t, FuzzyCopy)
	p.SpanSampleEvery = 1
	p.SlowOpCommitThreshold = time.Hour // armed but never tripping
	e := mustOpen(t, p)
	defer e.Close()

	val := encVal(7)
	for i := 0; i < 64; i++ {
		if err := e.ExecWrite(3, val); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(512, func() {
		if err := e.ExecWrite(3, val); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ExecWrite with tracing: %v allocs/op, want 0", allocs)
	}
	spans := e.SpanEvents()
	if len(spans) == 0 {
		t.Fatal("no spans recorded with SpanSampleEvery=1")
	}
	var commits, children int
	for _, s := range spans {
		if s.Kind == obs.SpanCommit {
			commits++
		}
		if s.Parent != 0 {
			children++
		}
	}
	if commits == 0 || children == 0 {
		t.Errorf("span ring has %d commit roots and %d children, want both > 0", commits, children)
	}
	if n := e.Watchdog().Trips(); n != 0 {
		t.Errorf("watchdog tripped %d times under an hour-long threshold", n)
	}
}

// TestTxnCommitAllocationBounded pins the explicit Begin/Write/Commit
// cycle's designed cost: a user-held Txn is never recycled (recycleTxn
// covers only ExecWrite-internal transactions, so a caller retaining a
// finished Txn can't observe it mutating under a new identity), which
// leaves the transaction object and its write map as the only per-cycle
// allocations. The bound catches regressions such as re-introduced
// closure captures or before-image boxing without promising the zero
// that only the closure-free ExecWrite path can deliver.
func TestTxnCommitAllocationBounded(t *testing.T) {
	e := mustOpen(t, testParams(t, FuzzyCopy))
	defer e.Close()

	val := encVal(9)
	cycle := func() {
		txn, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := txn.Write(5, val); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(512, cycle)
	if allocs > 4 {
		t.Errorf("Begin/Write/Commit: %v allocs/op, want ≤ 4 (txn object, write map, image copy, map bucket)", allocs)
	}
}

// raceEnabled is set in -race builds (race_test.go).
var raceEnabled bool

// serialCkptAllocs is what one checkpoint of the guard's database cost
// on the separate serial sweeps that the one-worker batched sweep
// replaced, measured with go1.24 on linux/amd64: a full checkpoint, then
// a partial one after four single-record writes. Nearly all of it is
// the log markers and the backup writes around the sweep.
var serialCkptAllocs = map[Algorithm][2]float64{
	FuzzyCopy:     {82, 54},
	FastFuzzy:     {81, 53},
	TwoColorFlush: {82, 54},
	TwoColorCopy:  {83, 55},
	COUFlush:      {81, 53},
	COUCopy:       {82, 54},
	Zigzag:        {81, 53},
	Hourglass:     {81, 53},
}

// TestOneWorkerCheckpointAllocations pins the one-worker sweep's cost: a
// checkpoint allocates no more than the serial sweeps did (checked
// outside -race builds), and the sweep spawns no goroutine — every
// segment hook runs with the goroutine count the checkpoint started with.
func TestOneWorkerCheckpointAllocations(t *testing.T) {
	for _, alg := range allAlgorithms {
		for k, full := range []bool{true, false} {
			t.Run(fmt.Sprintf("%v/full=%v", alg, full), func(t *testing.T) {
				p := testParams(t, alg)
				p.Full = full
				var before, hookMax atomic.Int64
				p.SegmentHook = func(uint64, int, int) error {
					if g := int64(runtime.NumGoroutine()); g > hookMax.Load() {
						hookMax.Store(g)
					}
					return nil
				}
				e := mustOpen(t, p)
				defer e.Close()
				val := encVal(7)
				ckpt := func() {
					for s := uint64(0); s < 4; s++ {
						if err := e.ExecWrite(s*8, val); err != nil {
							t.Fatal(err)
						}
					}
					before.Store(int64(runtime.NumGoroutine()))
					hookMax.Store(0)
					if _, err := e.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					if hookMax.Load() != before.Load() {
						t.Fatalf("%d goroutines inside the sweep, %d before it", hookMax.Load(), before.Load())
					}
				}
				// Warm up: the first checkpoints take the lazy allocations
				// (log tail, backup metadata) later ones reuse.
				for i := 0; i < 8; i++ {
					ckpt()
				}
				got := testing.AllocsPerRun(20, ckpt)
				if raceEnabled {
					return
				}
				if want := serialCkptAllocs[alg][k]; got > want {
					t.Errorf("checkpoint: %v allocs, serial sweep took %v", got, want)
				}
			})
		}
	}
}
