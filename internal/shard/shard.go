// Package shard hash-partitions a kvstore keyspace across N independent
// engines — the scale-out layer under cmd/mmdbd.
//
// Each shard is a complete, self-contained kvstore.Local: its own
// directory (Config.ShardDirName), WAL, lock manager, checkpoint loop,
// metrics registry, and span tracer. Keys route to shards by FNV-1a
// hash, so there is no cross-shard coordination — and no cross-shard
// lock — on any single-key path. Checkpoint schedules are staggered by
// shard*CheckpointInterval/Shards (see Config.ShardConfig). Under the
// checkpoint throttle each flushing worker is one disk stream, so the
// stagger bounds the aggregate backup bandwidth to the streams of the
// shards checkpointing at once instead of N simultaneous bursts.
//
// The Router implements kvstore.Store, so everything written against
// the in-process store — tests, benches, the mmdbd server — drives a
// sharded database unchanged.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mmdb"
	"mmdb/internal/obs"
	"mmdb/kvstore"
)

// FNV-1a, inlined so routing allocates nothing.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Index returns the shard a key routes to among n shards.
func Index(key []byte, n int) int {
	h := uint64(fnvOffset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return int(h % uint64(n))
}

// shardObs is one shard's router-level counters. The shard's engine
// internals (commit latency, WAL bytes, checkpoint phases, span trees)
// live on that shard's own registry; these count what the router
// routed.
type shardObs struct {
	ops    *obs.Counter
	errors *obs.Counter
}

// Router fans a kvstore.Store across N shards. It is immutable after
// Open: the hot path reads the shard table without locks.
type Router struct {
	shards []*kvstore.Local
	obs    []shardObs
	reg    *obs.Registry

	batchSplits *obs.Counter

	closed atomic.Bool
}

// Open opens (or recovers) every shard of cfg concurrently and returns
// the router plus one recovery report per shard (nil entries for
// freshly created shards). cfg.Shards <= 1 opens a single shard with
// cfg's exact unsharded layout, so a one-shard router is byte-
// compatible with a plain kvstore database.
func Open(ctx context.Context, cfg mmdb.Config) (*Router, []*mmdb.RecoveryReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	n := cfg.Shards
	if n < 1 {
		n = 1
	}

	stores := make([]*kvstore.Local, n)
	reports := make([]*mmdb.RecoveryReport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sc, err := cfg.ShardConfig(i)
		if err != nil {
			return nil, nil, err
		}
		wg.Add(1)
		// goleak:joins wg.Wait below
		go func(i int, sc mmdb.Config) {
			defer wg.Done()
			stores[i], reports[i], errs[i] = kvstore.Open(sc)
		}(i, sc)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, s := range stores {
			if s != nil {
				s.Close() //nolint:errcheckwal // best-effort cleanup; the open error takes precedence
			}
		}
		return nil, nil, fmt.Errorf("shard: open: %w", err)
	}

	r := &Router{shards: stores, reg: obs.NewRegistry()}
	r.batchSplits = r.reg.Counter("mmdb_router_batch_splits_total",
		"Batches that spanned more than one shard (applied per-shard, not atomically across shards).")
	r.obs = make([]shardObs, n)
	for i := range stores {
		i := i
		s := stores[i]
		r.obs[i] = shardObs{
			ops: r.reg.Counter(fmt.Sprintf("mmdb_shard_%03d_ops_total", i),
				"Operations the router routed to this shard."),
			errors: r.reg.Counter(fmt.Sprintf("mmdb_shard_%03d_errors_total", i),
				"Routed operations that returned an error."),
		}
		r.reg.GaugeFunc(fmt.Sprintf("mmdb_shard_%03d_entries", i),
			"Live entries stored in this shard.",
			func() float64 { return float64(s.Len()) })
		r.reg.CounterFunc(fmt.Sprintf("mmdb_shard_%03d_txns_committed_total", i),
			"Transactions committed by this shard's engine.",
			func() uint64 { return s.EngineStats().TxnsCommitted })
		r.reg.CounterFunc(fmt.Sprintf("mmdb_shard_%03d_checkpoints_total", i),
			"Checkpoints completed by this shard's engine.",
			func() uint64 { return s.EngineStats().Checkpoints })
	}
	return r, reports, nil
}

// NumShards returns the shard count.
func (r *Router) NumShards() int { return len(r.shards) }

// Shard exposes one shard's in-process store — the door to that shard's
// engine, metrics registry, and span tracer (per-shard flight
// recording comes for free: every engine carries its own).
func (r *Router) Shard(i int) *kvstore.Local { return r.shards[i] }

// Registry is the router-level metrics registry: per-shard routed-op
// counters (mmdb_shard_NNN_*, the shard encoded in the metric name) and
// router aggregates. Engine-internal metrics stay on each shard's own
// registry.
func (r *Router) Registry() *obs.Registry { return r.reg }

func (r *Router) route(key []byte) int { return Index(key, len(r.shards)) }

// count tallies one routed op (and its error) on shard i's counters.
func (r *Router) count(i int, err error) {
	r.obs[i].ops.Inc()
	if err != nil {
		r.obs[i].errors.Inc()
	}
}

// Get routes to the key's shard.
func (r *Router) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	i := r.route(key)
	v, ok, err := r.shards[i].Get(ctx, key)
	r.count(i, err)
	return v, ok, err
}

// Put routes to the key's shard.
func (r *Router) Put(ctx context.Context, key, val []byte) error {
	i := r.route(key)
	err := r.shards[i].Put(ctx, key, val)
	r.count(i, err)
	return err
}

// Delete routes to the key's shard.
func (r *Router) Delete(ctx context.Context, key []byte) (bool, error) {
	i := r.route(key)
	existed, err := r.shards[i].Delete(ctx, key)
	r.count(i, err)
	return existed, err
}

// Batch partitions ops by shard and applies each partition as that
// shard's atomic batch, in shard order.
//
// Semantics: a batch whose keys all hash to one shard is fully atomic
// (it is exactly a Local batch). A multi-shard batch is best-effort:
// each shard's slice commits atomically, but there is no atomicity
// across shards — a crash or an error can leave earlier shards'
// slices applied and later ones not. The first error stops the
// remaining shards and is returned wrapped with the failing shard.
// Cross-shard two-phase commit over the group-commit WAL is the
// planned upgrade; callers needing all-or-nothing today must keep a
// batch's keys on one shard.
func (r *Router) Batch(ctx context.Context, ops []kvstore.Op) error {
	if len(r.shards) == 1 {
		err := r.shards[0].Batch(ctx, ops)
		r.count(0, err)
		return err
	}
	// Partition preserving per-key order (order between different keys
	// inside one batch is immaterial: last-op-per-key wins, which
	// per-shard partitioning preserves).
	parts := make(map[int][]kvstore.Op, 2)
	for _, op := range ops {
		i := r.route(op.Key)
		parts[i] = append(parts[i], op)
	}
	if len(parts) > 1 {
		r.batchSplits.Inc()
	}
	for i := 0; i < len(r.shards); i++ {
		part, hit := parts[i]
		if !hit {
			continue
		}
		err := r.shards[i].Batch(ctx, part)
		r.count(i, err)
		if err != nil {
			return fmt.Errorf("shard %d: %w (multi-shard batches are per-shard atomic; earlier shards' ops are applied)", i, err)
		}
	}
	return nil
}

// Stats reports one ShardStats per shard, in shard order.
func (r *Router) Stats(ctx context.Context) (kvstore.StoreStats, error) {
	if err := ctx.Err(); err != nil {
		return kvstore.StoreStats{}, err
	}
	st := kvstore.StoreStats{Shards: make([]kvstore.ShardStats, len(r.shards))}
	for i, s := range r.shards {
		st.Shards[i] = kvstore.ShardStats{
			Shard:  i,
			Len:    s.Len(),
			Free:   s.Free(),
			Engine: s.EngineStats(),
		}
	}
	return st, nil
}

// Checkpoint forces one checkpoint on every shard, concurrently (each
// shard's engine serializes with its own loop internally).
func (r *Router) Checkpoint(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for i, s := range r.shards {
		wg.Add(1)
		// goleak:joins wg.Wait below
		go func(i int, s *kvstore.Local) {
			defer wg.Done()
			_, errs[i] = s.Checkpoint()
		}(i, s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Close closes every shard. Safe to call twice.
func (r *Router) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	errs := make([]error, len(r.shards))
	for i, s := range r.shards {
		errs[i] = s.Close()
	}
	return errors.Join(errs...)
}

// Crash simulates a whole-process failure: every shard's engine drops
// its volatile state (tests only; reopen with Open).
func (r *Router) Crash() error {
	if r.closed.Swap(true) {
		return nil
	}
	errs := make([]error, len(r.shards))
	for i, s := range r.shards {
		errs[i] = s.Crash()
	}
	return errors.Join(errs...)
}

// Router implements the transport-agnostic store API.
var _ kvstore.Store = (*Router)(nil)
