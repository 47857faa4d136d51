package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"mmdb"
	"mmdb/client"
	"mmdb/internal/server"
	"mmdb/internal/shard"
	"mmdb/kvstore"
)

// seams are the benchmark's own wrappers, passed through the seams the
// program already has: server.New takes a kvstore.Store (in process,
// the callers take it directly), client.New a net.Conn and Server.Serve
// a net.Listener. Nil entries leave the seam untouched.
type seams struct {
	store    func(kvstore.Store) kvstore.Store
	conn     func(net.Conn) net.Conn
	listener func(net.Listener) net.Listener
}

// stack is one opened system under test.
type stack struct {
	w   workload
	cfg mmdb.Config
	dir string
	// opened is when shard.Open was called: the phase origin of every
	// shard's checkpoint schedule.
	opened time.Time
	router *shard.Router
	srv    *server.Server
	served chan error
	conns  []*client.Client
	// stores are what the callers invoke: one per connection, or the
	// (possibly wrapped) router in process.
	stores []kvstore.Store
}

// preloadBatch is the preload's batch size: large, so set-up pays few
// synchronous commits.
const preloadBatch = 1024

// preloadID is the request ID of key k's preloaded value.
func preloadID(k int) uint64 { return requestID(0, uint64(k)+1) }

// openStack creates a fresh database under dir, preloads every key,
// and (for wire workloads) starts the server and dials the connections.
func openStack(ctx context.Context, w workload, dir string, ks *keyspace, sm seams) (*stack, error) {
	st := &stack{w: w, cfg: w.config(dir), dir: dir}
	st.opened = time.Now()
	r, _, err := shard.Open(ctx, st.cfg)
	if err != nil {
		return nil, err
	}
	st.router = r
	if err := st.preload(ctx, ks); err != nil {
		return nil, errors.Join(err, st.close())
	}
	wrap := func(s kvstore.Store) kvstore.Store {
		if sm.store != nil {
			return sm.store(s)
		}
		return s
	}
	if !w.wire {
		st.stores = []kvstore.Store{wrap(r)}
		return st, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, st.close())
	}
	addr := ln.Addr().String()
	if sm.listener != nil {
		ln = sm.listener(ln)
	}
	st.srv = server.New(wrap(r))
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	for i := 0; i < w.conns; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, errors.Join(err, st.close())
		}
		if sm.conn != nil {
			c = sm.conn(c)
		}
		cl := client.New(c)
		st.conns = append(st.conns, cl)
		st.stores = append(st.stores, cl)
	}
	return st, nil
}

// preload writes every key's initial value, one writer per shard.
func (st *stack) preload(ctx context.Context, ks *keyspace) error {
	errs := make([]error, numShards)
	var wg sync.WaitGroup
	for s := 0; s < numShards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			keys := ks.byShard[s]
			ops := make([]kvstore.Op, 0, preloadBatch)
			for lo := 0; lo < len(keys); lo += preloadBatch {
				ops = ops[:0]
				for _, k := range keys[lo:min(lo+preloadBatch, len(keys))] {
					v := newValueBuf()
					putValue(v, preloadID(int(k)), k)
					ops = append(ops, kvstore.Op{Key: ks.keys[k], Val: v})
				}
				if err := st.router.Batch(ctx, ops); err != nil {
					errs[s] = fmt.Errorf("preload: %w", err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// stopWire closes the connections and stops the server; the router
// stays open.
func (st *stack) stopWire() error {
	var errs []error
	for _, c := range st.conns {
		errs = append(errs, c.Close())
	}
	st.conns = nil
	if st.srv != nil {
		st.srv.Shutdown()
		<-st.served
		st.srv = nil
	}
	return errors.Join(errs...)
}

// close tears the whole stack down and deletes its files.
func (st *stack) close() error {
	err := st.stopWire()
	if st.router != nil {
		err = errors.Join(err, st.router.Close())
	}
	return errors.Join(err, os.RemoveAll(st.dir))
}

// recovery is what the crash epilogue measured.
type recovery struct {
	seconds []float64 // shard.Open wall time per repetition
	cpu     []float64 // process CPU seconds shard.Open used, per repetition
	reports [][]*mmdb.RecoveryReport
}

// crashAndRecover ends a run: it stops the checkpoint loops, takes two
// checkpoints, writes the fixed tail, crashes every shard, and times
// shard.Open recoveryReps times (crashing again between repetitions;
// recovery writes nothing but a torn-tail truncation, so each
// repetition recovers the same state). The recovered router replaces
// st.router.
func (st *stack) crashAndRecover(ctx context.Context, ks *keyspace, tailKeys [][batchOps]uint32, log *writeLog, owner int, clock func() int64) (recovery, error) {
	var rec recovery
	for i := 0; i < st.router.NumShards(); i++ {
		st.router.Shard(i).DB().StopCheckpointLoop()
	}
	// Two checkpoints refresh both ping-pong backup copies, so log
	// compaction drops everything before the tail: every run then
	// recovers the same amount of log whatever its load left behind.
	for i := 0; i < 2; i++ {
		if err := st.router.Checkpoint(ctx); err != nil {
			return rec, fmt.Errorf("checkpoint before the tail: %w", err)
		}
	}
	recs := make([]wrec, len(tailKeys))
	errs := make([]error, numShards)
	var wg sync.WaitGroup
	for s := 0; s < numShards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			vals := [batchOps][]byte{newValueBuf(), newValueBuf(), newValueBuf(), newValueBuf(), newValueBuf()}
			ops := make([]kvstore.Op, batchOps)
			for i := s; i < len(tailKeys); i += numShards {
				id := requestID(owner, uint64(i)+1)
				for j, k := range tailKeys[i] {
					putValue(vals[j], id, k)
					ops[j] = kvstore.Op{Key: ks.keys[k], Val: vals[j]}
				}
				r := wrec{id: id, keys: tailKeys[i], n: batchOps, sent: clock()}
				err := st.router.Batch(ctx, ops)
				r.done = clock()
				r.state = acked
				if err != nil {
					r.state = failed
					errs[s] = fmt.Errorf("tail batch %d: %w", i, err)
				}
				recs[i] = r
			}
		}(s)
	}
	wg.Wait()
	log.add(recs)
	if err := errors.Join(errs...); err != nil {
		return rec, err
	}
	if err := st.router.Crash(); err != nil {
		return rec, fmt.Errorf("crash: %w", err)
	}
	st.stores = nil // they reach the crashed router
	cfg := st.cfg
	cfg.AutoCheckpoint = false // a checkpoint on reopen would change what the next repetition recovers
	for rep := 0; rep < recoveryReps; rep++ {
		st.router = nil
		runtime.GC() // the crashed stack's garbage is not recovery's cost
		t0, c0 := time.Now(), processCPU()
		r, reports, err := shard.Open(ctx, cfg)
		d, c := time.Since(t0), processCPU()-c0
		if err != nil {
			return rec, fmt.Errorf("recovery %d: %w", rep, err)
		}
		rec.seconds = append(rec.seconds, d.Seconds())
		rec.cpu = append(rec.cpu, c.Seconds())
		rec.reports = append(rec.reports, reports)
		st.router = r
		if rep < recoveryReps-1 {
			if err := r.Crash(); err != nil {
				return rec, fmt.Errorf("crash after recovery %d: %w", rep, err)
			}
		}
	}
	return rec, nil
}
