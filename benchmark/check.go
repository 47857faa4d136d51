package main

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"mmdb/internal/obs"
	"mmdb/kvstore"
)

// Write states as the check sees them.
const (
	unsent uint8 = iota // due but never sent: not applied
	acked               // the store returned nil
	failed              // the store returned an error: may or may not be applied
)

// wrec is one attempted write request (a Put or a Batch): every key it
// wrote got the value of request id. sent and done are nanoseconds on
// the run clock, taken just before the call and just after it returned.
type wrec struct {
	id         uint64
	sent, done int64
	keys       [batchOps]uint32
	n          uint8
	state      uint8
}

// writeLog collects every generator's write records. Each generator
// appends to its own slice, so the hot path takes no lock.
type writeLog struct {
	mu   sync.Mutex
	recs [][]wrec // guarded by mu; one slice per finished phase
}

func (l *writeLog) add(recs []wrec) {
	l.mu.Lock()
	l.recs = append(l.recs, recs)
	l.mu.Unlock()
}

// noWrite marks a key no acknowledged write reached: it must still
// hold its preloaded value (or that of a failed write).
const noWrite = -1 << 62

// expected computes, per key, the request IDs a correct store may hold
// once every writer has stopped. A write may be the final one unless an
// acknowledged write to the same key was sent after it returned; writes
// of one owner that never overlap leave exactly one candidate, the last
// acknowledged write.
func (l *writeLog) expected() [][]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	latest := make([]int64, numKeys)
	for i := range latest {
		latest[i] = noWrite
	}
	for _, recs := range l.recs {
		for i := range recs {
			r := &recs[i]
			if r.state != acked {
				continue
			}
			for _, k := range r.keys[:r.n] {
				if r.sent > latest[k] {
					latest[k] = r.sent
				}
			}
		}
	}
	want := make([][]uint64, numKeys)
	for k, t := range latest {
		if t == noWrite {
			want[k] = append(want[k], preloadID(k))
		}
	}
	for _, recs := range l.recs {
		for i := range recs {
			r := &recs[i]
			if r.state == unsent {
				continue
			}
			for _, k := range r.keys[:r.n] {
				if r.done >= latest[k] {
					want[k] = append(want[k], r.id)
				}
			}
		}
	}
	return want
}

// errCheck marks a correctness violation, as opposed to a failure to
// run the benchmark.
var errCheck = errors.New("correctness check failed")

// verifyReaders is the read-back's concurrency: one reader per core of
// the 2-core reference host, so its latencies are comparable run to run.
const verifyReaders = 2

// verify reads every key through stores with verifyReaders concurrent
// readers and checks it holds one of the values want allows. It returns
// the Gets' latencies (the read-back doubles as the read sample of
// write-only workloads).
func verify(ctx context.Context, stores []kvstore.Store, ks *keyspace, want [][]uint64, clock func() int64) (*obs.Histogram, error) {
	lat := newLatencies()
	errs := make([]error, verifyReaders)
	var wg sync.WaitGroup
	for p := 0; p < verifyReaders; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			store := stores[p%len(stores)]
			bad := 0
			for k := p; k < numKeys; k += verifyReaders {
				t0 := clock()
				v, ok, err := store.Get(ctx, ks.keys[k])
				lat.Observe(uint64(clock() - t0))
				if err != nil {
					errs[p] = fmt.Errorf("read-back of key %d: %w", k, err)
					return
				}
				if e := checkRead(v, ok, uint32(k), want[k]); e != nil {
					if bad == 0 {
						errs[p] = fmt.Errorf("%w: %v", errCheck, e)
					}
					bad++
				}
			}
			if bad > 1 {
				errs[p] = fmt.Errorf("%w (and %d more keys)", errs[p], bad-1)
			}
		}(p)
	}
	wg.Wait()
	return lat, errors.Join(errs...)
}

// checkRead checks one read-back value against the allowed request IDs.
func checkRead(v []byte, ok bool, key uint32, allowed []uint64) error {
	if !ok {
		return fmt.Errorf("key %d: missing, want the value of request %#x", key, allowed)
	}
	id, err := parseValue(v, key)
	if err != nil {
		return err
	}
	for _, a := range allowed {
		if a == id {
			return nil
		}
	}
	return fmt.Errorf("key %d: holds the value of request %#x, want one of %#x", key, id, allowed)
}
