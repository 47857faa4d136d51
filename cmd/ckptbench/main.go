// Command ckptbench drives the real mmdb engine under the paper's load
// model: concurrent writers issue transactions of uniform record updates
// while the configured checkpoint algorithm maintains the backup database.
// At the end it optionally crashes the engine and times recovery, then
// reports throughput, checkpoint activity, the measured restart
// probability, commit/checkpoint latency quantiles from the engine's
// histograms, and a measured-vs-analytic comparison: the run priced in
// the paper's instructions-per-transaction metric next to the model's
// prediction for the same operating point.
//
// With -throttle the run is also the paper's Section 5 testbed: the
// checkpointer's segment writes are paced by the Table 2b disk model
// (each worker one disk stream, the delays divided by -speedup), and the
// model is priced at that same scaled disk, the achieved arrival rate and
// the measured checkpoint interval, so measured active checkpoint time,
// segments per checkpoint, p_restart and instructions per transaction
// verify the model's processor-overhead and checkpoint-duration
// arithmetic side by side.
//
// Example:
//
//	ckptbench -alg 2CCOPY -records 65536 -txns 20000 -writers 4 -crash
//	ckptbench -matrix -crash -json BENCH_ckpt.json   # all eight algorithms
//	ckptbench -alg COUCOPY -parallel 1,4 -throttle -crash   # 1- vs 4-worker pipeline
//	ckptbench -matrix -throttle -speedup 20 -tps 400        # §5 testbed: live engine vs model
//	ckptbench -alg COUCOPY -metrics :6060            # mmdbctl stats -addr http://localhost:6060/metrics
//	ckptbench -shards 4 -crash -append -json BENCH_ckpt.json  # sharded, through a loopback mmdbd
//	ckptbench -shards 4 -addr db0:7070               # against an already-running mmdbd
//
// With -shards the workload runs through the transport-agnostic store
// API against a live network stack (see sharded.go); the -json report
// gains a per-shard + aggregate block under "sharded_runs".
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mmdb"
	"mmdb/analytic"
	"mmdb/internal/obs"
	"mmdb/workload"
)

var (
	algName  = flag.String("alg", "COUCOPY", "checkpoint algorithm")
	matrix   = flag.Bool("matrix", false, "run all eight algorithms in sequence (ignores -alg and -dir)")
	records  = flag.Int("records", 1<<16, "number of records")
	recBytes = flag.Int("recbytes", 128, "record size in bytes")
	segBytes = flag.Int("segbytes", 0, "segment size in bytes (0 = 256 records)")
	txns     = flag.Int("txns", 20000, "transactions to run")
	updates  = flag.Int("updates", 5, "updates per transaction (the paper's N_ru)")
	writers  = flag.Int("writers", 4, "concurrent writer goroutines")
	interval = flag.Duration("interval", 0, "checkpoint interval (0 = back-to-back)")
	full     = flag.Bool("full", false, "full checkpoints")
	stable   = flag.Bool("stable", false, "stable log tail")
	syncCmt  = flag.Bool("sync", false, "synchronous commit")
	zipfS    = flag.Float64("zipf", 0, "Zipf skew (>1 enables skewed access; 0 = uniform, the paper's model)")
	tps      = flag.Float64("tps", 0, "target transaction arrival rate (Poisson, split across writers; 0 = unpaced)")
	crash    = flag.Bool("crash", false, "crash at the end and time recovery")
	dirFlag  = flag.String("dir", "", "database directory (default: a temp dir)")
	seed     = flag.Int64("seed", 1, "workload seed")
	parallel = flag.String("parallel", "1", "comma-separated checkpoint/recovery worker counts; each algorithm runs once per count")
	throttle = flag.Bool("throttle", false, "pace checkpoint segment writes with the paper's disk model, one stream per worker, and price the model at that disk")
	speedup  = flag.Float64("speedup", 0, "with -throttle: divide the modeled disk delays by this factor (0 = 1, real modeled time)")
	jsonPath = flag.String("json", "", "write the machine-readable result file here")
	appendTo = flag.Bool("append", false, "with -json: keep the existing file's runs and append this invocation's (the schema is upgraded in place)")
	metrics  = flag.String("metrics", "", "serve live metrics on this address during the run (e.g. :6060)")
	traceOut = flag.String("trace", "", "write each run's span ring as Chrome trace-event JSON here (matrix/parallel runs get per-run suffixes)")
)

// ResultSchema identifies the -json file layout. v2 added the
// "parallelism" config echo and "avg_checkpoint_seconds"; v3 added the
// per-phase commit "attribution" breakdown from the mmdb_commit_attr_*
// histograms; v4 added the "sharded_runs" block (-shards: per-shard
// engine stats, an aggregate, and fleet recovery times); v5 adds the
// "throttle_speedup" config echo and the measured and predicted active
// checkpoint seconds to "analytic". Every field v5 adds is optional, so
// -append reads v2–v4 files unchanged.
const ResultSchema = "mmdb/ckptbench/v5"

// BenchFile is the top-level -json document.
type BenchFile struct {
	Schema      string           `json:"schema"`
	Runs        []*BenchResult   `json:"runs"`
	ShardedRuns []*ShardedResult `json:"sharded_runs,omitempty"`
}

// BenchResult is one algorithm's run: configuration, totals, latency
// histograms, recovery phase times, and the measured-vs-analytic pricing.
type BenchResult struct {
	Algorithm      string                       `json:"algorithm"`
	Config         BenchConfig                  `json:"config"`
	ElapsedSeconds float64                      `json:"elapsed_seconds"`
	AvgCkptSeconds float64                      `json:"avg_checkpoint_seconds"`
	TxnsCommitted  uint64                       `json:"txns_committed"`
	TxnsPerSecond  float64                      `json:"txns_per_second"`
	Checkpoints    uint64                       `json:"checkpoints"`
	SegsFlushed    uint64                       `json:"segments_flushed"`
	SegsSkipped    uint64                       `json:"segments_skipped"`
	BytesFlushed   uint64                       `json:"bytes_flushed"`
	ColorRestarts  uint64                       `json:"color_restarts"`
	COUCopies      uint64                       `json:"cou_copies"`
	ZigzagFlips    uint64                       `json:"zigzag_flips,omitempty"`
	HourglassWaits uint64                       `json:"hourglass_waits,omitempty"`
	Latency        map[string]obs.HistogramJSON `json:"latency"`
	// Attribution decomposes commit latency into its phases (see
	// DESIGN.md §19): each entry is one mmdb_commit_attr_* histogram.
	// lock_wait and restart lie outside the commit-latency histogram;
	// the remaining phases nest inside it, so their sums are bounded by
	// the commit sum.
	Attribution map[string]obs.HistogramJSON `json:"attribution,omitempty"`
	Recovery    *RecoveryJSON                `json:"recovery,omitempty"`
	Analytic    *AnalyticJSON                `json:"analytic,omitempty"`
}

// BenchConfig echoes the knobs that shaped the run.
type BenchConfig struct {
	Records         int     `json:"records"`
	RecordBytes     int     `json:"record_bytes"`
	SegmentBytes    int     `json:"segment_bytes"`
	Txns            int     `json:"txns"`
	UpdatesPerTxn   int     `json:"updates_per_txn"`
	Writers         int     `json:"writers"`
	IntervalSeconds float64 `json:"interval_seconds"`
	Full            bool    `json:"full"`
	StableTail      bool    `json:"stable_tail"`
	SyncCommit      bool    `json:"sync_commit"`
	ZipfS           float64 `json:"zipf_s"`
	Seed            int64   `json:"seed"`
	// Parallelism is the checkpoint worker-pool width and recovery
	// worker count the run used (1 = one worker, the serial case).
	Parallelism int  `json:"parallelism"`
	Throttled   bool `json:"throttled"`
	// ThrottleSpeedup is the factor the throttle divided the disk-model
	// delays by (throttled runs only).
	ThrottleSpeedup float64 `json:"throttle_speedup,omitempty"`
}

// RecoveryJSON reports the timed crash-recovery phases (-crash only).
type RecoveryJSON struct {
	TotalSeconds      float64 `json:"total_seconds"`
	BackupLoadSeconds float64 `json:"backup_load_seconds"`
	LogScanSeconds    float64 `json:"log_scan_seconds"`
	RedoApplySeconds  float64 `json:"redo_apply_seconds"`
	SegmentsLoaded    int     `json:"segments_loaded"`
	RecordsScanned    int     `json:"records_scanned"`
	TxnsReplayed      int     `json:"txns_replayed"`
	UpdatesApplied    int     `json:"updates_applied"`
}

// AnalyticJSON compares the run's measured cost against the paper's
// analytic model evaluated at the same operating point (same geometry and
// per-transaction update count, arrival rate taken from the measured
// throughput; with -throttle also the throttled disk and the measured
// checkpoint interval, see modelParams).
type AnalyticJSON struct {
	MeasuredOverheadPerTxn  float64 `json:"measured_overhead_per_txn"`
	MeasuredSyncPerTxn      float64 `json:"measured_sync_per_txn"`
	MeasuredAsyncPerTxn     float64 `json:"measured_async_per_txn"`
	PredictedOverheadPerTxn float64 `json:"predicted_overhead_per_txn"`
	PredictedSyncPerTxn     float64 `json:"predicted_sync_per_txn"`
	PredictedAsyncPerTxn    float64 `json:"predicted_async_per_txn"`
	MeasuredPRestart        float64 `json:"measured_p_restart"`
	PredictedPRestart       float64 `json:"predicted_p_restart"`
	MeasuredRecoverySeconds float64 `json:"measured_recovery_seconds,omitempty"`
	PredictedRecoverySecs   float64 `json:"predicted_recovery_seconds"`
	PredictedSegsPerCkpt    float64 `json:"predicted_segments_per_checkpoint"`
	MeasuredSegsPerCkpt     float64 `json:"measured_segments_per_checkpoint"`
	// MeasuredActiveCkptSecs is one worker's segment write time per
	// checkpoint (the checkpoint_segment histogram's sum, which includes
	// the throttle's pacing, ÷ checkpoints ÷ workers), the live
	// counterpart of the model's active checkpoint time.
	MeasuredActiveCkptSecs  float64 `json:"measured_active_checkpoint_seconds"`
	PredictedActiveCkptSecs float64 `json:"predicted_active_checkpoint_seconds"`
}

// latencyHists maps the -json latency keys to registry histogram names.
var latencyHists = map[string]string{
	"commit":                "mmdb_engine_commit_seconds",
	"checkpoint":            "mmdb_engine_checkpoint_seconds",
	"checkpoint_segment":    "mmdb_engine_checkpoint_segment_seconds",
	"lsn_wait":              "mmdb_engine_lsn_wait_seconds",
	"wal_append":            "mmdb_wal_append_seconds",
	"wal_flush":             "mmdb_wal_flush_seconds",
	"wal_flush_batch_bytes": "mmdb_wal_flush_batch_bytes",
	"backup_segment_write":  "mmdb_backup_segment_write_seconds",
	"lock_wait":             "mmdb_lockmgr_wait_seconds",
}

// attrHists maps the -json attribution keys to the commit-attribution
// histogram names. attrOrder fixes the console print order.
var attrHists = map[string]string{
	"lock_wait":       "mmdb_commit_attr_lock_wait_seconds",
	"wal_append":      "mmdb_commit_attr_wal_append_seconds",
	"flush_wait":      "mmdb_commit_attr_flush_wait_seconds",
	"cou_copy":        "mmdb_commit_attr_cou_copy_seconds",
	"zigzag_flip":     "mmdb_commit_attr_zigzag_flip_seconds",
	"hourglass_stall": "mmdb_commit_attr_hourglass_stall_seconds",
	"restart":         "mmdb_commit_attr_restart_seconds",
}

var attrOrder = []string{
	"lock_wait", "wal_append", "flush_wait", "cou_copy",
	"zigzag_flip", "hourglass_stall", "restart",
}

// liveDB publishes the currently running database to the -metrics server
// (matrix mode opens a new database per algorithm).
var liveDB atomic.Pointer[mmdb.DB]

func main() {
	flag.Parse()
	if *speedup != 0 && !*throttle {
		fmt.Fprintln(os.Stderr, "ckptbench: -speedup scales the -throttle disk model; add -throttle or drop -speedup")
		os.Exit(2)
	}
	if *metrics != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			db := liveDB.Load()
			if db == nil {
				http.Error(w, "no run in progress", http.StatusServiceUnavailable)
				return
			}
			db.Metrics().ServeHTTP(w, r)
		})
		// goleak:fireforget(metrics endpoint serves for the whole process lifetime)
		go func() {
			if err := http.ListenAndServe(*metrics, mux); err != nil {
				fmt.Fprintln(os.Stderr, "ckptbench: metrics server:", err)
			}
		}()
	}

	algs := []string{*algName}
	if *matrix {
		algs = algs[:0]
		for _, a := range mmdb.Algorithms {
			algs = append(algs, a.String())
		}
	}
	pars, err := parseParallelList(*parallel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ckptbench:", err)
		os.Exit(1)
	}

	file := &BenchFile{Schema: ResultSchema}
	if *jsonPath != "" && *appendTo {
		if prev, err := loadBenchFile(*jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, "ckptbench: -append:", err)
			os.Exit(1)
		} else if prev != nil {
			file.Runs = prev.Runs
			file.ShardedRuns = prev.ShardedRuns
		}
	}

	if *shardsFlag > 0 {
		res, err := runSharded()
		if err != nil {
			fmt.Fprintln(os.Stderr, "ckptbench:", err)
			os.Exit(1)
		}
		file.ShardedRuns = append(file.ShardedRuns, res)
	} else {
		for i, name := range algs {
			for j, par := range pars {
				if i+j > 0 {
					fmt.Println()
				}
				res, err := run(name, par)
				if err != nil {
					fmt.Fprintln(os.Stderr, "ckptbench:", err)
					os.Exit(1)
				}
				file.Runs = append(file.Runs, res)
			}
		}
		printSpeedups(file.Runs)
	}

	if *jsonPath != "" {
		buf, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ckptbench: write -json:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s (%d runs, %d sharded)\n", *jsonPath, len(file.Runs), len(file.ShardedRuns))
	}
}

// loadBenchFile reads an existing -json file for -append. A missing
// file is fine (nil, nil); any ckptbench schema is accepted — the
// rewrite stamps the current one.
func loadBenchFile(path string) (*BenchFile, error) {
	buf, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var file BenchFile
	if err := json.Unmarshal(buf, &file); err != nil {
		return nil, fmt.Errorf("%s is not a ckptbench result file: %w", path, err)
	}
	if !strings.HasPrefix(file.Schema, "mmdb/ckptbench/") {
		return nil, fmt.Errorf("%s has schema %q, not a ckptbench result file", path, file.Schema)
	}
	return &file, nil
}

// parseParallelList parses the -parallel flag: a comma-separated list of
// positive worker counts.
func parseParallelList(s string) ([]int, error) {
	var pars []int
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		n, err := strconv.Atoi(field)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -parallel entry %q (want a positive integer)", field)
		}
		pars = append(pars, n)
	}
	if len(pars) == 0 {
		return nil, fmt.Errorf("-parallel %q names no worker counts", s)
	}
	return pars, nil
}

// printSpeedups compares each algorithm's parallel runs against its
// serial (parallelism-1) run, when both are present.
func printSpeedups(runs []*BenchResult) {
	serial := map[string]*BenchResult{}
	for _, r := range runs {
		if r.Config.Parallelism == 1 {
			serial[r.Algorithm] = r
		}
	}
	printed := false
	for _, r := range runs {
		base := serial[r.Algorithm]
		if r.Config.Parallelism == 1 || base == nil {
			continue
		}
		if !printed {
			fmt.Println("\nparallel vs serial:")
			printed = true
		}
		line := fmt.Sprintf("  %-10s %d workers:", r.Algorithm, r.Config.Parallelism)
		if base.AvgCkptSeconds > 0 && r.AvgCkptSeconds > 0 {
			line += fmt.Sprintf(" checkpoint %.2fx (%.1fms → %.1fms)",
				base.AvgCkptSeconds/r.AvgCkptSeconds,
				base.AvgCkptSeconds*1e3, r.AvgCkptSeconds*1e3)
		}
		if base.Recovery != nil && r.Recovery != nil && r.Recovery.TotalSeconds > 0 {
			line += fmt.Sprintf(", recovery %.2fx (%.1fms → %.1fms)",
				base.Recovery.TotalSeconds/r.Recovery.TotalSeconds,
				base.Recovery.TotalSeconds*1e3, r.Recovery.TotalSeconds*1e3)
		}
		fmt.Println(line)
	}
}

func run(algName string, par int) (*BenchResult, error) {
	alg, err := mmdb.ParseAlgorithm(algName)
	if err != nil {
		return nil, err
	}
	dir := *dirFlag
	if dir == "" || *matrix {
		var err error
		dir, err = os.MkdirTemp("", "ckptbench-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	cfg := mmdb.Config{
		Dir:                 filepath.Clean(dir),
		NumRecords:          *records,
		RecordBytes:         *recBytes,
		SegmentBytes:        *segBytes,
		Algorithm:           alg,
		FullCheckpoints:     *full,
		StableLogTail:       *stable || alg == mmdb.FastFuzzy,
		SyncCommit:          *syncCmt,
		GroupCommitInterval: 2 * time.Millisecond,
		CheckpointInterval:  *interval,
		AutoCheckpoint:      true,

		CheckpointParallelism: par,
		RecoveryParallelism:   par,
		// The throttle charges each worker the full per-device service
		// time, so the K-worker pipeline shows the disk-model speedup
		// even on few-core hosts (the sleeps overlap).
		ThrottleSpeedup: throttleSpeedup(),
	}
	if *traceOut != "" {
		// Trace every commit so the exported span ring holds complete
		// trees for the run's tail rather than a 1-in-8 sample.
		cfg.SpanSampleEvery = 1
	}
	db, err := mmdb.Open(cfg)
	if err != nil {
		return nil, err
	}
	liveDB.Store(db)
	defer liveDB.Store(nil)

	fmt.Printf("engine: %v\n", db)
	fmt.Printf("load: %d txns × %d updates, %d writers, %s access, %d checkpoint worker(s)\n\n",
		*txns, *updates, *writers, map[bool]string{true: "zipf", false: "uniform"}[*zipfS > 1], par)

	var done atomic.Int64
	start := time.Now()
	werr := runWriters(*writers, func(w int) error {
		gen, err := newGenerator(*records, *recBytes, w)
		if err != nil {
			return err
		}
		var pacer *workload.Pacer
		if *tps > 0 {
			if pacer, err = workload.NewPacer(*tps/float64(*writers), true, *seed+100+int64(w)); err != nil {
				return err
			}
		}
		for i := writerTxns(*txns, *writers, w); i > 0; i-- {
			if pacer != nil {
				pacer.Wait()
			}
			spec := gen.Next()
			err := db.Exec(func(tx *mmdb.Txn) error {
				for _, u := range spec.Updates {
					if err := tx.Write(u.Record, u.Value); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			done.Add(1)
		}
		return nil
	})
	elapsed := time.Since(start)
	db.StopCheckpointLoop()
	if werr != nil {
		return nil, errors.Join(werr, db.Close())
	}

	st := db.Stats()
	tput := float64(done.Load()) / elapsed.Seconds()
	fmt.Printf("committed %d txns in %v (%.0f txn/s)\n", done.Load(), elapsed.Round(time.Millisecond), tput)
	fmt.Printf("checkpoints: %d completed, %d segments flushed (%.1f MB), %d skipped clean\n",
		st.Checkpoints, st.SegmentsFlushed, float64(st.BytesFlushed)/1e6, st.SegmentsSkipped)
	fmt.Printf("last checkpoint: %v; avg %v\n",
		st.LastCheckpointTime.Round(time.Microsecond), avgCkpt(st).Round(time.Microsecond))
	fmt.Printf("two-color: %d restarts of %d attempts (measured p_restart = %.4f)\n",
		st.ColorRestarts, st.TxnsBegun, st.PRestart())
	fmt.Printf("copy-on-update: %d old-version copies (%.1f MB), peak %d live\n",
		st.COUCopies, float64(st.COUCopyBytes)/1e6, st.COUPeakOld)
	if st.ZigzagFlips > 0 || st.HourglassWaits > 0 {
		fmt.Printf("extensions: %d zigzag flips (%.1f MB), %d hourglass window waits\n",
			st.ZigzagFlips, float64(st.ZigzagFlipBytes)/1e6, st.HourglassWaits)
	}
	fmt.Printf("log: %d appends, %d flushes, %.1f MB; locks: %d acquired, %d waits, %d timeouts\n",
		st.LogAppends, st.LogFlushes, float64(st.LogBytes)/1e6, st.LockAcquires, st.LockWaits, st.LockTimeouts)

	res := &BenchResult{
		Algorithm: alg.String(),
		Config: BenchConfig{
			Records: *records, RecordBytes: *recBytes, SegmentBytes: effSegBytes(),
			Txns: *txns, UpdatesPerTxn: *updates, Writers: *writers,
			IntervalSeconds: interval.Seconds(),
			Full:            *full, StableTail: cfg.StableLogTail, SyncCommit: *syncCmt,
			ZipfS: *zipfS, Seed: *seed,
			Parallelism: par, Throttled: *throttle, ThrottleSpeedup: throttleSpeedup(),
		},
		ElapsedSeconds: elapsed.Seconds(),
		AvgCkptSeconds: avgCkpt(st).Seconds(),
		TxnsCommitted:  uint64(done.Load()),
		TxnsPerSecond:  tput,
		Checkpoints:    st.Checkpoints,
		SegsFlushed:    st.SegmentsFlushed,
		SegsSkipped:    st.SegmentsSkipped,
		BytesFlushed:   uint64(st.BytesFlushed),
		ColorRestarts:  st.ColorRestarts,
		COUCopies:      st.COUCopies,
		ZigzagFlips:    st.ZigzagFlips,
		HourglassWaits: st.HourglassWaits,
		Latency:        map[string]obs.HistogramJSON{},
	}
	reg := db.MetricsRegistry()
	for key, name := range latencyHists {
		if h := reg.FindHistogram(name); h != nil && h.Count() > 0 {
			res.Latency[key] = obs.SnapshotJSON(h.Snapshot())
		}
	}
	if c := res.Latency["commit"]; c.Count > 0 {
		fmt.Printf("commit latency: p50 %.0fµs p90 %.0fµs p99 %.0fµs max %.0fµs\n",
			c.P50*1e6, c.P90*1e6, c.P99*1e6, c.Max*1e6)
	}
	res.Attribution = map[string]obs.HistogramJSON{}
	for key, name := range attrHists {
		if h := reg.FindHistogram(name); h != nil && h.Count() > 0 {
			res.Attribution[key] = obs.SnapshotJSON(h.Snapshot())
		}
	}
	if n := res.TxnsCommitted; n > 0 && len(res.Attribution) > 0 {
		line := "commit attribution (µs/txn):"
		for _, key := range attrOrder {
			a, ok := res.Attribution[key]
			if !ok {
				continue
			}
			line += fmt.Sprintf(" %s %.1f", key, a.Sum/float64(n)*1e6)
		}
		fmt.Println(line)
	}

	if *traceOut != "" {
		path := traceFilePath(*traceOut, alg.String(), par)
		if err := writeTrace(path, db); err != nil {
			return nil, err
		}
		fmt.Printf("wrote Chrome trace to %s\n", path)
	}

	res.Analytic = priceRun(db, st, alg, tput, par, res.Latency["checkpoint_segment"].Sum)
	if a := res.Analytic; a != nil {
		fmt.Printf("overhead instr/txn: measured %.0f (sync %.0f + async %.0f) vs predicted %.0f (sync %.0f + async %.0f)\n",
			a.MeasuredOverheadPerTxn, a.MeasuredSyncPerTxn, a.MeasuredAsyncPerTxn,
			a.PredictedOverheadPerTxn, a.PredictedSyncPerTxn, a.PredictedAsyncPerTxn)
		fmt.Printf("p_restart: measured %.4f vs predicted %.4f; predicted recovery %.2fs\n",
			a.MeasuredPRestart, a.PredictedPRestart, a.PredictedRecoverySecs)
		fmt.Printf("active checkpoint: measured %.4fs vs predicted %.4fs; segments/ckpt measured %.1f vs predicted %.1f\n",
			a.MeasuredActiveCkptSecs, a.PredictedActiveCkptSecs, a.MeasuredSegsPerCkpt, a.PredictedSegsPerCkpt)
	}

	if !*crash {
		return res, db.Close()
	}

	fmt.Println("\ncrashing...")
	if err := db.Crash(); err != nil {
		return nil, err
	}
	rstart := time.Now()
	db2, rep, err := mmdb.Recover(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Printf("recovered in %v: checkpoint %d (copy %d, %s), %d segments loaded (%.1f MB), "+
		"%d log records scanned (%.1f MB), %d txns replayed, %d updates applied, %d discarded\n",
		time.Since(rstart).Round(time.Millisecond), rep.CheckpointID, rep.UsedCopy,
		rep.CheckpointAlgorithm, rep.SegmentsLoaded, float64(rep.BackupBytesRead)/1e6,
		rep.RecordsScanned, float64(rep.LogBytesRead)/1e6,
		rep.TxnsReplayed, rep.UpdatesApplied, rep.UpdatesDiscarded)
	fmt.Printf("recovery phases: backup load %v, log scan %v, redo apply %v\n",
		rep.BackupLoadTime.Round(time.Microsecond), rep.LogScanTime.Round(time.Microsecond),
		rep.RedoApplyTime.Round(time.Microsecond))
	res.Recovery = &RecoveryJSON{
		TotalSeconds:      rep.Elapsed.Seconds(),
		BackupLoadSeconds: rep.BackupLoadTime.Seconds(),
		LogScanSeconds:    rep.LogScanTime.Seconds(),
		RedoApplySeconds:  rep.RedoApplyTime.Seconds(),
		SegmentsLoaded:    rep.SegmentsLoaded,
		RecordsScanned:    rep.RecordsScanned,
		TxnsReplayed:      rep.TxnsReplayed,
		UpdatesApplied:    rep.UpdatesApplied,
	}
	if res.Analytic != nil {
		res.Analytic.MeasuredRecoverySeconds = rep.Elapsed.Seconds()
	}
	return res, db2.Close()
}

// traceFilePath derives a per-run trace filename: the -trace path as
// given for a single run, or with an ".ALG-pN" tag before the extension
// when the matrix or a -parallel list produces several runs.
func traceFilePath(base, alg string, par int) string {
	if !*matrix && !strings.Contains(*parallel, ",") {
		return base
	}
	ext := filepath.Ext(base)
	return fmt.Sprintf("%s.%s-p%d%s", strings.TrimSuffix(base, ext), alg, par, ext)
}

// writeTrace dumps the engine's span ring as Chrome trace-event JSON,
// loadable in chrome://tracing or Perfetto.
func writeTrace(path string, db *mmdb.DB) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := obs.WriteChromeTrace(f, db.Spans())
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// runWriters runs fn for writers 0..n-1 concurrently, waits for all of
// them, and returns the error of the lowest-numbered writer that failed.
func runWriters(n int, fn func(w int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		// goleak:joins wg.Wait below
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(w)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			return fmt.Errorf("writer %d: %w", w, err)
		}
	}
	return nil
}

// newGenerator builds writer w's transaction generator over n records
// with valBytes-byte values: Zipf-skewed with -zipf > 1, else uniform.
func newGenerator(n, valBytes, w int) (workload.Generator, error) {
	if *zipfS > 1 {
		return workload.NewZipf(n, *updates, valBytes, *zipfS, *seed+int64(w))
	}
	return workload.NewUniform(n, *updates, valBytes, *seed+int64(w))
}

// writerTxns is writer w's share of txns transactions split across
// writers: the first txns % writers writers run one extra, so the shares
// sum to txns exactly.
func writerTxns(txns, writers, w int) int {
	n := txns / writers
	if w < txns%writers {
		n++
	}
	return n
}

// effSegBytes resolves the segment-size default the engine applies.
func effSegBytes() int {
	if *segBytes != 0 {
		return *segBytes
	}
	return *recBytes * mmdb.DefaultRecordsPerSegment
}

// throttleSpeedup is the factor the checkpoint throttle divides the
// disk-model delays by: -speedup, with 1 for 0, or 0 (off) for an
// unthrottled run.
func throttleSpeedup() float64 {
	switch {
	case !*throttle:
		return 0
	case *speedup == 0:
		return 1
	}
	return *speedup
}

// modelParams maps the run onto the analytic model: sizes in words, the
// per-transaction update count, and the achieved throughput as the
// arrival rate (pacing sheds backlog when the host cannot hold -tps).
// With -throttle the disk is the one the engine was paced with: Table
// 2b's times divided by the speedup, and one disk per checkpoint worker
// (each worker is one synchronous stream), so the model's FlushRate is
// the throttle's real rate. The scaled sweep has no one-second floor.
func modelParams(par int, tput float64) analytic.Params {
	p := analytic.DefaultParams()
	p.SRec = float64(*recBytes) / analytic.WordBytes
	p.SSeg = float64(effSegBytes()) / analytic.WordBytes
	p.SDB = float64(*records) * p.SRec
	p.NRU = float64(*updates)
	if tput > 0 {
		p.Lambda = tput
	}
	if *throttle {
		p.TSeek /= throttleSpeedup()
		p.TTrans /= throttleSpeedup()
		p.NDisks = float64(par)
		p.MinCheckpointSeconds = 1e-3
	}
	return p
}

// priceRun prices the run two ways: measured (the engine's activity
// counters priced with the paper's cost constants, and the active
// checkpoint time read off segSeconds, the checkpoint_segment
// histogram's sum) and predicted (the analytic model evaluated at
// modelParams). A throttled run is priced at its measured checkpoint
// interval and with correlated retries, because the live engine re-runs
// an aborted transaction at once with the same records. Nil when the
// model rejects the operating point (e.g. a degenerate geometry).
func priceRun(db *mmdb.DB, st mmdb.Stats, alg mmdb.Algorithm, tput float64, par int, segSeconds float64) *AnalyticJSON {
	p := modelParams(par, tput)
	mPerTxn, mSync, mAsync, err := analytic.MeasuredOverhead(p, db.MeasuredCounts())
	if err != nil {
		fmt.Fprintln(os.Stderr, "ckptbench: measured pricing:", err)
		return nil
	}
	a := &AnalyticJSON{
		MeasuredOverheadPerTxn: mPerTxn,
		MeasuredSyncPerTxn:     mSync,
		MeasuredAsyncPerTxn:    mAsync,
		MeasuredPRestart:       st.PRestart(),
	}
	if st.Checkpoints > 0 {
		a.MeasuredSegsPerCkpt = float64(st.SegmentsFlushed) / float64(st.Checkpoints)
		a.MeasuredActiveCkptSecs = segSeconds / float64(st.Checkpoints) / float64(par)
	}
	opts := analytic.Options{
		Algorithm:       alg,
		Full:            *full,
		StableTail:      *stable || alg == mmdb.FastFuzzy,
		IntervalSeconds: interval.Seconds(),
	}
	if *throttle {
		// Begin-to-begin: the longer of -interval and the mean checkpoint
		// duration the throttled sweep actually took.
		opts.IntervalSeconds = math.Max(opts.IntervalSeconds, avgCkpt(st).Seconds())
		opts.Retry = analytic.CorrelatedRetries
	}
	pred, err := analytic.Evaluate(p, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ckptbench: analytic model:", err)
		return a
	}
	a.PredictedOverheadPerTxn = pred.OverheadPerTxn
	a.PredictedSyncPerTxn = pred.SyncOverheadPerTxn
	a.PredictedAsyncPerTxn = pred.AsyncOverheadPerTxn
	a.PredictedPRestart = pred.PRestart
	a.PredictedRecoverySecs = pred.RecoverySeconds
	a.PredictedSegsPerCkpt = pred.SegmentsPerCheckpoint
	a.PredictedActiveCkptSecs = pred.ActiveSeconds
	return a
}

func avgCkpt(st mmdb.Stats) time.Duration {
	if st.Checkpoints == 0 {
		return 0
	}
	return st.TotalCheckpointTime / time.Duration(st.Checkpoints)
}
