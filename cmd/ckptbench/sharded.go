package main

// Sharded benchmarking (-shards N): drive the paper's load model
// through the transport-agnostic store API against a sharded database —
// either a full in-process loopback stack (router → mmdbd server → TCP
// → network client, the default) or an already-running mmdbd (-addr).
// Every shard runs its own engine, WAL, and staggered checkpoint loop;
// the report carries per-shard engine stats plus an aggregate block.

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"mmdb"
	"mmdb/client"
	"mmdb/internal/server"
	"mmdb/internal/shard"
	"mmdb/kvstore"
)

var (
	shardsFlag = flag.Int("shards", 0, "benchmark a sharded store with this many shards (0 = classic single-engine mode)")
	addrFlag   = flag.String("addr", "", "with -shards: benchmark an already-running mmdbd at this address instead of an in-process loopback stack")
)

// ShardedResult is one sharded run in the -json file (schema v4).
type ShardedResult struct {
	// Mode is "loopback" (in-process router + server + client over TCP)
	// or "remote" (-addr against an external mmdbd).
	Mode   string `json:"mode"`
	Addr   string `json:"addr,omitempty"`
	Shards int    `json:"shards"`

	Config         BenchConfig `json:"config"`
	ElapsedSeconds float64     `json:"elapsed_seconds"`
	// Batches is the number of committed client batches (the sharded
	// run's transaction analogue); Ops counts the individual updates.
	Batches      uint64  `json:"batches"`
	Ops          uint64  `json:"ops"`
	OpsPerSecond float64 `json:"ops_per_second"`
	// BatchSplits counts batches that spanned shards (loopback only:
	// the router-side counter is not remotely readable).
	BatchSplits uint64 `json:"batch_splits,omitempty"`

	PerShard  []ShardRunJSON  `json:"per_shard"`
	Aggregate ShardAggJSON    `json:"aggregate"`
	Recovery  *ShardRecovJSON `json:"recovery,omitempty"`
}

// ShardRunJSON is one shard's engine-level view of the run.
type ShardRunJSON struct {
	Shard           int     `json:"shard"`
	Entries         int     `json:"entries"`
	Free            int     `json:"free"`
	TxnsCommitted   uint64  `json:"txns_committed"`
	Checkpoints     uint64  `json:"checkpoints"`
	SegmentsFlushed uint64  `json:"segments_flushed"`
	SegmentsSkipped uint64  `json:"segments_skipped"`
	BytesFlushed    uint64  `json:"bytes_flushed"`
	LogAppends      uint64  `json:"log_appends"`
	LogBytes        uint64  `json:"log_bytes"`
	RecoverySeconds float64 `json:"recovery_seconds,omitempty"`
}

// ShardAggJSON sums the per-shard numbers and reports balance: how
// evenly the hash routing spread the keyspace and the work.
type ShardAggJSON struct {
	Entries         int    `json:"entries"`
	TxnsCommitted   uint64 `json:"txns_committed"`
	Checkpoints     uint64 `json:"checkpoints"`
	SegmentsFlushed uint64 `json:"segments_flushed"`
	BytesFlushed    uint64 `json:"bytes_flushed"`
	LogBytes        uint64 `json:"log_bytes"`
	// MinEntries/MaxEntries bound the per-shard keyspace spread; a
	// healthy hash keeps them close.
	MinEntries int `json:"min_shard_entries"`
	MaxEntries int `json:"max_shard_entries"`
}

// ShardRecovJSON times whole-fleet crash recovery (-crash, loopback
// only): all shards recover concurrently, so the wall clock tracks the
// slowest shard, not the sum.
type ShardRecovJSON struct {
	WallSeconds float64 `json:"wall_seconds"`
	// SumSeconds adds each shard's own recovery time — the serial-
	// equivalent cost the parallel fleet recovery avoided.
	SumSeconds     float64 `json:"sum_seconds"`
	UsedCheckpoint int     `json:"shards_used_checkpoint"`
}

// runSharded executes the sharded benchmark and returns its report.
func runSharded() (*ShardedResult, error) {
	if *addrFlag != "" && *crash {
		return nil, fmt.Errorf("-crash needs the engines in-process; it cannot crash a remote mmdbd (-addr)")
	}

	res := &ShardedResult{
		Shards: *shardsFlag,
		Config: BenchConfig{
			Records: *records, RecordBytes: *recBytes, SegmentBytes: effSegBytes(),
			Txns: *txns, UpdatesPerTxn: *updates, Writers: *writers,
			IntervalSeconds: interval.Seconds(),
			SyncCommit:      *syncCmt, ZipfS: *zipfS, Seed: *seed,
			Parallelism: 1, Throttled: *throttle, ThrottleSpeedup: throttleSpeedup(),
		},
	}

	// Assemble the store under test: a remote client, or the full
	// loopback stack over a real TCP socket.
	var store kvstore.Store
	var router *shard.Router
	var cfg mmdb.Config
	switch {
	case *addrFlag != "":
		res.Mode, res.Addr = "remote", *addrFlag
		cli, err := client.Dial(*addrFlag)
		if err != nil {
			return nil, err
		}
		defer cli.Close() //nolint:errcheckwal // benchmark teardown
		store = cli
		fmt.Printf("sharded bench: remote mmdbd at %s\n", *addrFlag)
	default:
		res.Mode = "loopback"
		dir := *dirFlag
		if dir == "" {
			var err error
			dir, err = os.MkdirTemp("", "ckptbench-shards-*")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
		}
		alg, err := mmdb.ParseAlgorithm(*algName)
		if err != nil {
			return nil, err
		}
		cfg = mmdb.Config{
			Dir:                 dir,
			NumRecords:          *records,
			RecordBytes:         *recBytes,
			SegmentBytes:        *segBytes,
			Algorithm:           alg,
			StableLogTail:       *stable || alg == mmdb.FastFuzzy,
			SyncCommit:          *syncCmt,
			GroupCommitInterval: 2 * time.Millisecond,
			CheckpointInterval:  *interval,
			AutoCheckpoint:      true,
			Shards:              *shardsFlag,
			ThrottleSpeedup:     throttleSpeedup(),
		}
		r, _, err := shard.Open(context.Background(), cfg)
		if err != nil {
			return nil, err
		}
		router = r
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			router.Close() //nolint:errcheckwal // open failed partway; report the listen error
			return nil, err
		}
		srv := server.New(router)
		serveDone := make(chan struct{})
		// goleak:joins the deferred Shutdown waits via serveDone
		go func() {
			defer close(serveDone)
			srv.Serve(ln) //nolint:errcheck // exits with a closed-listener error on Shutdown
		}()
		defer func() {
			srv.Shutdown()
			<-serveDone
			router.Close() //nolint:errcheckwal // benchmark teardown; -crash already crashed it
		}()
		cli, err := client.Dial(ln.Addr().String())
		if err != nil {
			return nil, err
		}
		defer cli.Close() //nolint:errcheckwal // benchmark teardown
		store = cli
		fmt.Printf("sharded bench: %d shards behind a loopback mmdbd stack at %s (%v)\n",
			*shardsFlag, ln.Addr(), alg)
	}

	// The load model over the store API: each "transaction" is one
	// client batch of -updates puts, keys drawn from half the record
	// capacity so the fleet never fills. Values sized so key + value +
	// header fit one record.
	keyspace := *records / 2
	valBytes := *recBytes / 2
	if valBytes < 1 {
		valBytes = 1
	}
	fmt.Printf("load: %d batches × %d puts, %d writers, %d-key space\n\n",
		*txns, *updates, *writers, keyspace)

	ctx := context.Background()
	var batches, ops atomic.Uint64
	start := time.Now()
	werr := runWriters(*writers, func(w int) error {
		gen, err := newGenerator(keyspace, valBytes, w)
		if err != nil {
			return err
		}
		batch := make([]kvstore.Op, *updates)
		for i := writerTxns(*txns, *writers, w); i > 0; i-- {
			spec := gen.Next()
			for j, u := range spec.Updates {
				batch[j] = kvstore.Op{
					Key: []byte(fmt.Sprintf("key-%08d", u.Record)),
					Val: u.Value,
				}
			}
			if err := store.Batch(ctx, batch); err != nil {
				return err
			}
			batches.Add(1)
			ops.Add(uint64(len(batch)))
		}
		return nil
	})
	elapsed := time.Since(start)
	if werr != nil {
		return nil, werr
	}

	st, err := store.Stats(ctx)
	if err != nil {
		return nil, err
	}
	res.ElapsedSeconds = elapsed.Seconds()
	res.Batches = batches.Load()
	res.Ops = ops.Load()
	res.OpsPerSecond = float64(ops.Load()) / elapsed.Seconds()
	if router != nil {
		res.BatchSplits = routerBatchSplits(router)
	}
	fillShardStats(res, st)

	fmt.Printf("committed %d batches (%d ops) in %v (%.0f ops/s)\n",
		res.Batches, res.Ops, elapsed.Round(time.Millisecond), res.OpsPerSecond)
	for _, sh := range res.PerShard {
		fmt.Printf("  shard %d: %d entries, %d txns, %d checkpoints, %d segments (%.1f MB), log %.1f MB\n",
			sh.Shard, sh.Entries, sh.TxnsCommitted, sh.Checkpoints,
			sh.SegmentsFlushed, float64(sh.BytesFlushed)/1e6, float64(sh.LogBytes)/1e6)
	}
	fmt.Printf("aggregate: %d entries (spread %d–%d per shard), %d checkpoints, %.1f MB flushed\n",
		res.Aggregate.Entries, res.Aggregate.MinEntries, res.Aggregate.MaxEntries,
		res.Aggregate.Checkpoints, float64(res.Aggregate.BytesFlushed)/1e6)

	if !*crash {
		return res, nil
	}

	// Whole-fleet crash: every engine loses volatile state at once, then
	// the fleet recovers concurrently — wall clock vs per-shard sum
	// shows the parallel-recovery win.
	fmt.Println("\ncrashing all shards...")
	_ = router.Crash() // teardown errors are the crash working as intended
	rstart := time.Now()
	r2, reps, err := shard.Open(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	defer r2.Close() //nolint:errcheckwal // benchmark teardown
	wall := time.Since(rstart)
	recov := &ShardRecovJSON{WallSeconds: wall.Seconds()}
	for i, rep := range reps {
		if rep == nil {
			continue
		}
		recov.SumSeconds += rep.Elapsed.Seconds()
		if rep.UsedCheckpoint {
			recov.UsedCheckpoint++
		}
		if i < len(res.PerShard) {
			res.PerShard[i].RecoverySeconds = rep.Elapsed.Seconds()
		}
	}
	res.Recovery = recov
	fmt.Printf("recovered %d shards in %v wall (%.1fms summed serial-equivalent), %d/%d from checkpoints\n",
		len(reps), wall.Round(time.Millisecond), recov.SumSeconds*1e3,
		recov.UsedCheckpoint, len(reps))
	return res, nil
}

// routerBatchSplits reads the router's split counter off its registry.
func routerBatchSplits(r *shard.Router) uint64 {
	for _, pt := range r.Registry().Gather() {
		if pt.Name == "mmdb_router_batch_splits_total" {
			return uint64(pt.Value)
		}
	}
	return 0
}

// fillShardStats populates the per-shard and aggregate blocks from a
// StoreStats snapshot (works identically for loopback and remote runs —
// the engine stats travel inside the stats response).
func fillShardStats(res *ShardedResult, st kvstore.StoreStats) {
	res.PerShard = make([]ShardRunJSON, 0, len(st.Shards))
	agg := ShardAggJSON{MinEntries: int(^uint(0) >> 1)}
	for _, sh := range st.Shards {
		e := sh.Engine
		res.PerShard = append(res.PerShard, ShardRunJSON{
			Shard:           sh.Shard,
			Entries:         sh.Len,
			Free:            sh.Free,
			TxnsCommitted:   e.TxnsCommitted,
			Checkpoints:     e.Checkpoints,
			SegmentsFlushed: e.SegmentsFlushed,
			SegmentsSkipped: e.SegmentsSkipped,
			BytesFlushed:    uint64(e.BytesFlushed),
			LogAppends:      e.LogAppends,
			LogBytes:        uint64(e.LogBytes),
		})
		agg.Entries += sh.Len
		agg.TxnsCommitted += e.TxnsCommitted
		agg.Checkpoints += e.Checkpoints
		agg.SegmentsFlushed += e.SegmentsFlushed
		agg.BytesFlushed += uint64(e.BytesFlushed)
		agg.LogBytes += uint64(e.LogBytes)
		if sh.Len < agg.MinEntries {
			agg.MinEntries = sh.Len
		}
		if sh.Len > agg.MaxEntries {
			agg.MaxEntries = sh.Len
		}
	}
	if len(st.Shards) == 0 {
		agg.MinEntries = 0
	}
	res.Aggregate = agg
}
