package main

import (
	"fmt"
	"path/filepath"

	"mmdb"
)

// perLayer adds the per-layer metrics of a traced run: p and win are the
// traced half window, base and baseW the untraced half before it on the
// same stack.
//
// Self times are per request and add up to the caller's round trip:
//
//	client.rtt_us = server.self_us + shard.self_us + kvstore.self_us + engine.commit_us_per_req
//
// server.self_us is the root span minus its store span (client library,
// codec, loopback and the server's dispatch; in process, only the call
// into the wrapper); shard.self_us the store span minus the time the
// shards' kvstore calls took (from their histograms); kvstore.self_us
// that kvstore time minus the engine's commit time.
func perLayer(res *result, p *phase, win window, base *phase, baseW, readback window, tr *tracer, rec recovery, replayed int, r *runner, o options) error {
	tr.mu.Lock()
	stores := tr.stores
	frames := tr.frames
	tr.mu.Unlock()
	unlinked := link(p.roots, stores)
	if unlinked > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d of %d root spans found no store span", unlinked, len(p.roots)))
	}

	nReq := float64(len(p.roots))
	var rootSum, linkedSelf, storeSum float64
	var linked, storeGets int
	for _, rt := range p.roots {
		rootSum += float64(rt.dur())
		if rt.child >= 0 {
			linked++
			linkedSelf += float64(rt.dur() - stores[rt.child].dur())
		}
	}
	for _, s := range stores {
		storeSum += float64(s.dur())
		if s.kind == kindGet {
			storeGets++
		}
	}
	nStore := float64(len(stores))

	// The wire counters stay 0 in process, where nothing is sent.
	wire := o.w.wire
	res.add("client.conn_writes_per_req", float64(tr.clientWrites.Load())/float64(p.attempted), "count", 0)
	res.add("client.bytes_out_per_op", float64(tr.clientBytes.Load())/float64(p.ops), "B", 0)
	res.add("client.rtt_us", rootSum/nReq/1e3, "us", len(p.roots))

	if !wire {
		frames = encodeFrames(r, maxFrames)
	}
	enc, dec, codecSpans, err := codecTiming(frames, r.clock)
	if err != nil {
		return err
	}
	res.add("netproto.encode_ns_per_frame", enc, "ns", len(frames))
	res.add("netproto.decode_ns_per_frame", dec, "ns", len(frames))

	res.add("server.self_us", linkedSelf/float64(max(linked, 1))/1e3, "us", linked)
	res.add("server.conn_writes_per_resp", float64(tr.serverWrites.Load())/float64(p.attempted), "count", 0)

	batchH := win.hist("mmdb_kvstore_batch_seconds")
	putH := win.hist("mmdb_kvstore_put_seconds")
	getH := win.hist("mmdb_kvstore_get_seconds") // sampled: 1 Get in 16
	getMean := meanMicros(getH)
	if getH.Count == 0 {
		// Write-only workloads: the Gets of the read-back check.
		getMean = meanMicros(readback.hist("mmdb_kvstore_get_seconds"))
	}
	commitH := win.hist("mmdb_engine_commit_seconds")
	kvTotal := sumMicros(batchH) + sumMicros(putH) + getMean*float64(storeGets)
	writeReqs := float64(p.batches + p.puts)
	txns := win.eng(func(s mmdb.Stats) uint64 { return s.TxnsCommitted })
	shardOps := win.shardOps()
	var opsSum, opsMax float64
	for _, n := range shardOps {
		opsSum += n
		opsMax = max(opsMax, n)
	}
	res.add("shard.self_us", (storeSum/1e3-kvTotal)/nStore, "us", len(stores))
	res.add("shard.split_frac", ratio(win.b.router["mmdb_router_batch_splits_total"]-win.a.router["mmdb_router_batch_splits_total"], float64(p.batches)), "ratio", p.batches)
	res.add("shard.commits_per_batch", ratio(txns, writeReqs), "count", int(writeReqs))
	res.add("shard.ops_imbalance", ratio(opsMax, opsSum/float64(len(shardOps))), "ratio", 0)

	writeCalls := batchH.Count + putH.Count
	res.add("kvstore.write_us", ratio(sumMicros(batchH)+sumMicros(putH), float64(writeCalls)), "us", int(writeCalls))
	res.add("kvstore.get_us", getMean, "us", int(getH.Count))
	res.add("kvstore.self_us", (kvTotal-sumMicros(commitH))/nStore, "us", len(stores))

	res.add("engine.commit_us_per_req", sumMicros(commitH)/nStore, "us", int(commitH.Count))
	res.add("engine.commit_p50_us", histQuantile(commitH, 0.50)*1e6, "us", int(commitH.Count))
	res.add("engine.commit_p99_us", histQuantile(commitH, 0.99)*1e6, "us", int(commitH.Count))
	perTxn := func(h string) float64 { return ratio(sumMicros(win.hist(h)), txns) }
	// Lock waits never happen on these workloads (every key has one
	// writer), so they are a share of commit time rather than a time
	// that would read 0 on every run.
	res.add("engine.lock_wait_frac", ratio(sumMicros(win.hist("mmdb_commit_attr_lock_wait_seconds")), sumMicros(commitH)), "ratio", int(txns))
	res.add("engine.wal_append_us_per_txn", perTxn("mmdb_commit_attr_wal_append_seconds"), "us", int(txns))
	res.add("engine.flush_wait_us_per_txn", perTxn("mmdb_commit_attr_flush_wait_seconds"), "us", int(txns))
	res.add("engine.cou_copy_us_per_txn", perTxn("mmdb_commit_attr_cou_copy_seconds"), "us", int(txns))
	res.add("engine.cou_copies_per_txn", ratio(win.eng(func(s mmdb.Stats) uint64 { return s.COUCopies }), txns), "count", int(txns))

	res.add("lockmgr.waits_per_txn", ratio(win.eng(func(s mmdb.Stats) uint64 { return s.LockWaits }), txns), "count", int(txns))

	flushH := win.hist("mmdb_wal_flush_seconds")
	logBytes := win.eng(func(s mmdb.Stats) uint64 { return s.LogBytes })
	res.add("wal.commits_per_flush", ratio(txns, win.eng(func(s mmdb.Stats) uint64 { return s.LogFlushes })), "count", 0)
	res.add("wal.flush_p50_ms", histQuantile(flushH, 0.50)*1e3, "ms", int(flushH.Count))
	res.add("wal.flush_p99_ms", histQuantile(flushH, 0.99)*1e3, "ms", int(flushH.Count))
	res.add("wal.bytes_per_user_byte", ratio(logBytes, float64(p.userBytes)), "B/B", 0)

	ckpts := win.eng(func(s mmdb.Stats) uint64 { return s.Checkpoints })
	flushed := win.eng(func(s mmdb.Stats) uint64 { return s.SegmentsFlushed })
	skipped := win.eng(func(s mmdb.Stats) uint64 { return s.SegmentsSkipped })
	res.add("ckpt.per_s", ckpts/p.elapsed().Seconds(), "1/s", int(ckpts))
	res.add("ckpt.duration_ms", meanMicros(win.hist("mmdb_engine_checkpoint_seconds"))/1e3, "ms", int(ckpts))
	res.add("ckpt.segments_per_ckpt", ratio(flushed, ckpts), "count", int(ckpts))
	res.add("ckpt.skipped_frac", ratio(skipped, flushed+skipped), "ratio", 0)
	res.add("ckpt.bytes_per_user_byte", ratio(win.eng(func(s mmdb.Stats) uint64 { return s.BytesFlushed }), float64(p.userBytes)), "B/B", 0)
	res.add("ckpt.lsn_waits_per_ckpt", ratio(win.eng(func(s mmdb.Stats) uint64 { return s.LSNWaits }), ckpts), "count", int(ckpts))
	backupH := win.hist("mmdb_backup_segment_write_seconds")
	res.add("backup.segment_write_us", meanMicros(backupH), "us", int(backupH.Count))

	var load, scan, redo, rebuild []float64
	for i, reports := range rec.reports {
		var l, s, d, e float64
		for _, rp := range reports {
			if rp == nil {
				continue
			}
			l = max(l, rp.BackupLoadTime.Seconds())
			s = max(s, rp.LogScanTime.Seconds())
			d = max(d, rp.RedoApplyTime.Seconds())
			e = max(e, rp.Elapsed.Seconds())
		}
		load, scan, redo = append(load, l*1e3), append(scan, s*1e3), append(redo, d*1e3)
		rebuild = append(rebuild, (rec.seconds[i]-e)*1e3)
	}
	n := len(rec.reports)
	res.add("recovery.backup_load_ms", median(load), "ms", n)
	res.add("recovery.log_scan_ms", median(scan), "ms", n)
	res.add("recovery.redo_apply_ms", median(redo), "ms", n)
	res.add("recovery.index_rebuild_ms", median(rebuild), "ms", n)
	res.add("recovery.txns_replayed", float64(replayed), "count", n)

	ops := float64(p.ops)
	res.add("runtime.alloc_bytes_per_op", float64(win.b.totalAlloc-win.a.totalAlloc)/ops, "B", p.ops)
	res.add("runtime.mallocs_per_op", float64(win.b.mallocs-win.a.mallocs)/ops, "count", p.ops)
	res.add("runtime.gc_cpu_frac", ratio(win.b.gcCPU-win.a.gcCPU, win.b.allCPU-win.a.allCPU), "ratio", 0)

	res.add("bench.gen_late_p99_ms", quantileMs(p.late, 0.99), "ms", int(p.late.Count()))
	res.add("bench.cpu_steal_frac", win.stealFrac(), "ratio", 0)

	cpuPerOp := func(p *phase, w window) float64 { return float64(w.cpu().Nanoseconds()) / 1e3 / float64(p.ops) }
	res.add("trace.overhead_cpu_us_per_op", cpuPerOp(p, win)-cpuPerOp(base, baseW), "us", p.ops)
	res.add("trace.overhead_write_p50_ms", quantileMs(p.writeLat, 0.5)-quantileMs(base.writeLat, 0.5), "ms", int(p.writeLat.Count()))

	path := filepath.Join(o.dir, "results", fmt.Sprintf("trace-%s-seed%d.json", o.w.name, o.seed))
	if err := writeChrome(path, p.roots, stores, codecSpans, !wire); err != nil {
		return fmt.Errorf("writing the Chrome trace: %w", err)
	}
	res.TracePath = path
	return nil
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
