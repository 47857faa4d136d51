package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"mmdb"
	"mmdb/internal/obs"
	"mmdb/kvstore"
)

// options is one run's settings.
type options struct {
	w      workload
	seed   int64
	window time.Duration
	trace  bool
	dir    string
	// wrap, when set, wraps the store the callers (or the server) use,
	// innermost, next to the router: tests pass a faulty store here.
	wrap func(kvstore.Store) kvstore.Store
}

// result is one run's full record.
type result struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Trace     bool           `json:"trace"`
	Host      host           `json:"host"`
	Params    map[string]any `json:"params"`
	Attempted int            `json:"attempted"`
	Acked     int            `json:"acknowledged"`
	Failed    int            `json:"failed"`
	ErrorFrac float64        `json:"error_frac"`
	Ops       int            `json:"user_ops"`
	// Routed is the router ops_total growth the acknowledged requests
	// imply; RouterOps is what the router counted.
	Routed    int     `json:"routed_expected"`
	RouterOps float64 `json:"router_ops_total"`
	Commits   float64 `json:"engine_commits"`
	Batches   int     `json:"batches"`
	// RecoveryReps is each timed recovery; RecoveryLogBytes the log
	// bytes the first one read, over all shards.
	RecoveryReps     []float64 `json:"recovery_reps_s"`
	RecoveryCPUReps  []float64 `json:"recovery_cpu_reps_s"`
	RecoveryLogBytes int64     `json:"recovery_log_bytes"`
	SetupReps        []float64 `json:"setup_reps_s,omitempty"`
	Metrics          []metric  `json:"metrics"`
	Notes            []string  `json:"notes,omitempty"`
	TracePath        string    `json:"chrome_trace,omitempty"`
}

type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	// Listed marks the metrics BENCHMARK.json names, which the last
	// output line carries; the others are printed and recorded only.
	Listed bool `json:"listed"`
}

// add records a metric BENCHMARK.json lists.
func (r *result) add(name string, v float64, unit string, samples int) {
	r.addMetric(name, v, unit, samples, true)
}

// addUnlisted records a metric that is printed and kept in the record
// but not listed in BENCHMARK.json: on the reference host its spread
// between runs of the same code exceeds any bound the benchmark may set.
func (r *result) addUnlisted(name string, v float64, unit string, samples int) {
	r.addMetric(name, v, unit, samples, false)
}

func (r *result) addMetric(name string, v float64, unit string, samples int, listed bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit, Samples: samples, Listed: listed})
}

// align waits, for a periodic checkpoint schedule, until the middle of
// a gap between two shards' checkpoint begins: the shards begin at
// opened + k*interval/numShards, so a window that starts there and
// lasts a multiple of that step holds the same number of checkpoints
// on every run.
func (st *stack) align() {
	if st.w.interval == 0 {
		return
	}
	step := st.w.interval / numShards
	el := time.Since(st.opened)
	at := (el/step)*step + step/2
	if at < el {
		at += step
	}
	time.Sleep(at - el)
}

// runBenchmark runs one workload: set-up, measured window(s), read-back
// check, crash epilogue, metrics. A correctness violation returns an
// error wrapping errCheck.
func runBenchmark(ctx context.Context, o options) (res *result, err error) {
	r := newRunner(o.w, o.seed)
	tailKeys := tail(r.ks, o.seed)
	var tr *tracer
	var sm seams
	if o.trace {
		tr = newTracer(r.clock)
		sm = tr.seams()
	}
	if o.wrap != nil {
		outer := sm.store
		sm.store = func(s kvstore.Store) kvstore.Store {
			s = o.wrap(s)
			if outer != nil {
				s = outer(s)
			}
			return s
		}
	}
	if err := os.MkdirAll(filepath.Join(o.dir, "results"), 0o755); err != nil {
		return nil, err
	}
	dataDir := filepath.Join(o.dir, "data", fmt.Sprintf("%s-%d", o.w.name, os.Getpid()))
	defer func() { err = errors.Join(err, os.RemoveAll(dataDir)) }()

	reps := setupReps
	if o.trace {
		reps = 1
	}
	var setups []float64
	var st *stack
	for i := 0; i < reps; i++ {
		runtime.GC() // an earlier set-up's garbage is not this one's cost
		t0 := time.Now()
		st, err = openStack(ctx, o.w, filepath.Join(dataDir, strconv.Itoa(i)), r.ks, sm)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < reps-1 {
			if err := st.close(); err != nil {
				return nil, fmt.Errorf("set-up teardown: %w", err)
			}
		}
	}
	defer func() { err = errors.Join(err, st.close()) }()

	res = &result{Workload: o.w.name, Seed: o.seed, Seconds: o.window.Seconds(), Trace: o.trace, Params: o.w.params()}
	var base, p *phase
	var baseW, win window
	if o.trace {
		half := o.window / 2
		st.align()
		a := takeProbe(st)
		base = r.run(ctx, st, half, 0, false)
		baseW = window{a, takeProbe(st)}
		st.align()
		a = takeProbe(st)
		tr.on.Store(true)
		p = r.run(ctx, st, half, 1, true)
		tr.on.Store(false)
		win = window{a, takeProbe(st)}
	} else {
		st.align()
		a := takeProbe(st)
		p = r.run(ctx, st, o.window, 0, false)
		win = window{a, takeProbe(st)}
	}
	res.Host = hostRecord(o.seed, win)
	res.Attempted, res.Acked, res.Failed, res.Ops = p.attempted, p.acked, p.failed, p.ops
	res.ErrorFrac = float64(p.failed) / float64(max(p.attempted, 1))
	res.Routed, res.Batches = p.routed, p.batches
	for _, n := range win.shardOps() {
		res.RouterOps += n
	}
	res.Commits = win.eng(func(s mmdb.Stats) uint64 { return s.TxnsCommitted })
	if p.readErr != nil {
		return res, fmt.Errorf("%w: a Get returned a value no write produced: %v", errCheck, p.readErr)
	}
	if base != nil && base.readErr != nil {
		return res, fmt.Errorf("%w: a Get returned a value no write produced: %v", errCheck, base.readErr)
	}
	if err := checkpointsPerShard(o, win); err != nil {
		return res, err
	}

	// Read-back: every key holds the value of its last acknowledged write.
	rbWin := window{a: takeProbe(st)}
	readback, err := verify(ctx, st.stores, r.ks, r.log.expected(), r.clock)
	if err != nil {
		return res, fmt.Errorf("read-back after the window: %w", err)
	}
	rbWin.b = takeProbe(st)
	if err := st.stopWire(); err != nil {
		return res, fmt.Errorf("closing the connections: %w", err)
	}
	rec, err := st.crashAndRecover(ctx, r.ks, tailKeys, &r.log, o.w.generators()+1, r.clock)
	if err != nil {
		return res, err
	}
	if _, err := verify(ctx, []kvstore.Store{st.router}, r.ks, r.log.expected(), r.clock); err != nil {
		return res, fmt.Errorf("after crash and recovery: %w", err)
	}
	replayed, err := replayedTxns(rec)
	if err != nil {
		return res, err
	}
	res.RecoveryReps, res.RecoveryCPUReps = rec.seconds, rec.cpu
	for _, rp := range rec.reports[0] {
		if rp != nil {
			res.RecoveryLogBytes += rp.LogBytesRead
		}
	}
	if !o.trace {
		res.SetupReps = append([]float64(nil), setups...)
		endToEnd(res, p, win, setups, readback, rec)
		return res, nil
	}
	if err := perLayer(res, p, win, base, baseW, rbWin, tr, rec, replayed, r, o); err != nil {
		return res, err
	}
	return res, nil
}

// checkpointsPerShard enforces shipped-write's validity rule: every
// shard finishes at least two checkpoints inside a full-length window.
func checkpointsPerShard(o options, win window) error {
	if o.trace || o.w.interval == 0 || !o.w.open || o.window < 2*o.w.interval {
		return nil
	}
	for i := range win.b.eng {
		if n := win.b.eng[i].Checkpoints - win.a.eng[i].Checkpoints; n < 2 {
			return fmt.Errorf("shard %d finished %d checkpoints in the window, want at least 2", i, n)
		}
	}
	return nil
}

// replayedTxns returns the transactions recovery replayed, summed over
// shards; every repetition must replay the same number.
func replayedTxns(rec recovery) (int, error) {
	n := -1
	for rep, reports := range rec.reports {
		m := 0
		for _, rp := range reports {
			if rp != nil {
				m += rp.TxnsReplayed
			}
		}
		if n >= 0 && m != n {
			return 0, fmt.Errorf("recovery %d replayed %d transactions, recovery 0 replayed %d", rep, m, n)
		}
		n = m
	}
	return n, nil
}

func (w workload) params() map[string]any {
	p := map[string]any{
		"records": numRecords, "record_bytes": recBytes, "shards": numShards, "algorithm": "COUCOPY",
		"sync_commit": true, "checkpoint_interval_s": w.interval.Seconds(), "batch_ops": batchOps,
		"live_keys": numKeys, "tail_batches": tailBatches, "setup_reps": setupReps, "recovery_reps": recoveryReps,
	}
	if w.wire {
		p["connections"] = w.conns
	}
	if w.open {
		p["loop"] = "open"
		p["rate_batches_per_s"] = w.rate
		p["keys"] = "uniform"
		p["max_inflight_per_conn"] = maxInflight
	} else {
		p["loop"] = "closed"
		p["callers"] = w.callers
		p["keys"] = "uniform"
		if w.readFrac > 0 {
			p["keys"] = fmt.Sprintf("zipf s=%g", zipfS)
		}
		p["read_frac"] = w.readFrac
	}
	return p
}

// endToEnd adds the end-to-end metrics of an untraced run. The listed
// ones are those that stay steady while the host's CPU steal swings
// (3-46% between runs on the 2-core reference host): processor time,
// bytes and memory per unit of work, and set-up time. Wall-clock
// throughput, latency and recovery time are printed and recorded too.
func endToEnd(res *result, p *phase, win window, setups []float64, readback *obs.Histogram, rec recovery) {
	res.add("setup_s", median(setups), "s", len(setups))
	res.add("cpu_us_per_op", float64(win.cpu().Nanoseconds())/1e3/float64(p.ops), "us", p.ops)
	disk := win.eng(func(s mmdb.Stats) uint64 { return s.LogBytes }) + win.eng(func(s mmdb.Stats) uint64 { return s.BytesFlushed })
	res.add("disk_bytes_per_user_byte", disk/float64(p.userBytes), "B/B", 0)
	res.add("peak_rss_mb", peakRSSMiB(), "MiB", 0)
	res.add("recovery_cpu_s", median(append([]float64(nil), rec.cpu...)), "s", len(rec.cpu))

	res.addUnlisted("ops_per_s", float64(p.ops)/p.elapsed().Seconds(), "1/s", p.ops)
	res.addUnlisted("write_p50_ms", quantileMs(p.writeLat, 0.50), "ms", int(p.writeLat.Count()))
	res.addUnlisted("write_p99_ms", quantileMs(p.writeLat, 0.99), "ms", int(p.writeLat.Count()))
	reads := p.readLat
	if reads.Count() == 0 {
		reads = readback
		res.Notes = append(res.Notes, "read_* come from the read-back check's Gets (the workload issues none)")
	}
	res.addUnlisted("read_p50_ms", quantileMs(reads, 0.50), "ms", int(reads.Count()))
	res.addUnlisted("read_p99_ms", quantileMs(reads, 0.99), "ms", int(reads.Count()))
	res.addUnlisted("recovery_s", median(append([]float64(nil), rec.seconds...)), "s", len(rec.seconds))
	res.addUnlisted("error_frac", res.ErrorFrac, "ratio", p.attempted)
}
