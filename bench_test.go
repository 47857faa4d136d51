// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (Section 4), plus live-engine benchmarks. Figure benchmarks
// report the reproduced quantities as custom metrics (instr/txn,
// recovery-s, p-restart) so `go test -bench` regenerates the numbers
// recorded in EXPERIMENTS.md.
package mmdb

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mmdb/analytic"
	"mmdb/sim"
	"mmdb/workload"
)

// BenchmarkTable2Defaults prices the paper's default parameter set
// (Tables 2a–2d) and reports the derived quantities the other figures
// build on.
func BenchmarkTable2Defaults(b *testing.B) {
	p := analytic.DefaultParams()
	for i := 0; i < b.N; i++ {
		if err := p.Validate(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(p.NumSegments(), "N_seg")
	b.ReportMetric(p.UpdateRate(), "updates/s")
	b.ReportMetric(p.SegmentIOTime()*1e3, "t_seg-ms")
	b.ReportMetric(p.FlushRate(), "flush/s")
}

// benchFigurePoint evaluates one (algorithm, options) point per iteration
// and reports the paper's two metrics.
func benchFigurePoint(b *testing.B, p analytic.Params, o analytic.Options) {
	b.Helper()
	var r *analytic.Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = analytic.Evaluate(p, o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.OverheadPerTxn, "instr/txn")
	b.ReportMetric(r.RecoverySeconds, "recovery-s")
	b.ReportMetric(r.PRestart, "p-restart")
}

// BenchmarkFigure4a reproduces Figure 4a: per-algorithm processor overhead
// and recovery time at the defaults with checkpoints back-to-back.
func BenchmarkFigure4a(b *testing.B) {
	p := analytic.DefaultParams()
	for _, alg := range []analytic.Algorithm{
		analytic.FuzzyCopy, analytic.TwoColorFlush, analytic.TwoColorCopy,
		analytic.COUFlush, analytic.COUCopy,
	} {
		b.Run(alg.String(), func(b *testing.B) {
			benchFigurePoint(b, p, analytic.Options{Algorithm: alg})
		})
	}
}

// BenchmarkFigure4b reproduces Figure 4b's trade-off curves: overhead and
// recovery for 2CCOPY/COUCOPY across interval multiples at 1× and 2× disk
// bandwidth.
func BenchmarkFigure4b(b *testing.B) {
	p := analytic.DefaultParams()
	for _, bw := range []int{1, 2} {
		pp := p
		pp.NDisks = p.NDisks * float64(bw)
		for _, alg := range []analytic.Algorithm{analytic.TwoColorCopy, analytic.COUCopy} {
			for _, factor := range []float64{1, 2, 4, 8} {
				o := analytic.Options{Algorithm: alg}
				base, err := analytic.Evaluate(pp, o)
				if err != nil {
					b.Fatal(err)
				}
				o.IntervalSeconds = base.MinDurationSeconds * factor
				b.Run(fmt.Sprintf("%s/%dx-disks/interval-%.0fx", alg, bw, factor), func(b *testing.B) {
					benchFigurePoint(b, pp, o)
				})
			}
		}
	}
}

// BenchmarkFigure4c reproduces Figure 4c: overhead per transaction across
// the load sweep for every algorithm.
func BenchmarkFigure4c(b *testing.B) {
	p := analytic.DefaultParams()
	for _, lam := range analytic.DefaultLoadSweep {
		pp := p
		pp.Lambda = lam
		for _, alg := range []analytic.Algorithm{
			analytic.FuzzyCopy, analytic.TwoColorFlush, analytic.TwoColorCopy,
			analytic.COUFlush, analytic.COUCopy,
		} {
			b.Run(fmt.Sprintf("lambda-%.0f/%s", lam, alg), func(b *testing.B) {
				benchFigurePoint(b, pp, analytic.Options{Algorithm: alg})
			})
		}
	}
}

// BenchmarkFigure4d reproduces Figure 4d: overhead across segment sizes,
// both checkpoints-ASAP (solid) and a fixed 300 s interval (dotted).
func BenchmarkFigure4d(b *testing.B) {
	p := analytic.DefaultParams()
	for _, seg := range analytic.DefaultSegmentSweep {
		pp := p
		pp.SSeg = seg
		for _, alg := range []analytic.Algorithm{
			analytic.TwoColorFlush, analytic.TwoColorCopy, analytic.COUCopy,
		} {
			for _, mode := range []struct {
				name     string
				interval float64
			}{{"asap", 0}, {"fixed300", analytic.Figure4dFixedInterval}} {
				b.Run(fmt.Sprintf("sseg-%.0f/%s/%s", seg, alg, mode.name), func(b *testing.B) {
					benchFigurePoint(b, pp, analytic.Options{Algorithm: alg, IntervalSeconds: mode.interval})
				})
			}
		}
	}
}

// BenchmarkFigure4e reproduces Figure 4e: overhead with a stable log tail,
// adding FASTFUZZY.
func BenchmarkFigure4e(b *testing.B) {
	p := analytic.DefaultParams()
	for _, alg := range analytic.Algorithms {
		b.Run(alg.String(), func(b *testing.B) {
			benchFigurePoint(b, p, analytic.Options{Algorithm: alg, StableTail: true})
		})
	}
}

// BenchmarkPRestart reproduces the Section 4 restart-probability
// computation at the default operating point, for both retry models.
func BenchmarkPRestart(b *testing.B) {
	p := analytic.DefaultParams()
	for _, retry := range []analytic.RetryModel{analytic.IndependentRetries, analytic.CorrelatedRetries} {
		b.Run(retry.String(), func(b *testing.B) {
			benchFigurePoint(b, p, analytic.Options{Algorithm: analytic.TwoColorCopy, Retry: retry})
		})
	}
}

// BenchmarkSimFigure4a cross-checks Figure 4a on the discrete-event
// simulator (scaled database so each iteration is quick).
func BenchmarkSimFigure4a(b *testing.B) {
	p := analytic.DefaultParams()
	p.SDB = 4096 * 512
	p.SSeg = 4096
	p.Lambda = 500
	for _, alg := range []analytic.Algorithm{
		analytic.FuzzyCopy, analytic.TwoColorCopy, analytic.COUCopy,
	} {
		b.Run(alg.String(), func(b *testing.B) {
			var r *sim.Result
			var err error
			for i := 0; i < b.N; i++ {
				r, err = sim.Run(sim.Config{
					Params:  p,
					Options: analytic.Options{Algorithm: alg},
					Seed:    int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.OverheadPerTxn, "instr/txn")
			b.ReportMetric(r.RecoverySeconds, "recovery-s")
			b.ReportMetric(r.PRestart, "p-restart")
		})
	}
}

// BenchmarkSimSkew measures the skewed-access extension: segments written
// per checkpoint under uniform vs Zipf load.
func BenchmarkSimSkew(b *testing.B) {
	p := analytic.DefaultParams()
	p.SDB = 4096 * 512
	p.SSeg = 4096
	p.Lambda = 200
	for _, skew := range []float64{0, 1.2, 1.5} {
		skew := skew
		name := "uniform"
		if skew > 0 {
			name = fmt.Sprintf("zipf-%.1f", skew)
		}
		b.Run(name, func(b *testing.B) {
			var r *sim.Result
			var err error
			for i := 0; i < b.N; i++ {
				r, err = sim.Run(sim.Config{
					Params:  p,
					Options: analytic.Options{Algorithm: analytic.FuzzyCopy},
					Seed:    int64(i + 1),
					Skew:    skew,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.SegmentsPerCheckpoint, "segs/ckpt")
			b.ReportMetric(r.MeanDurationSeconds, "duration-s")
		})
	}
}

// --- Live-engine benchmarks -------------------------------------------

func benchConfig(b *testing.B, alg Algorithm) Config {
	b.Helper()
	cfg := Config{
		Dir:         b.TempDir(),
		NumRecords:  1 << 14,
		RecordBytes: 128,
		Algorithm:   alg,
	}
	if alg == FastFuzzy {
		cfg.StableLogTail = true
	}
	return cfg
}

// BenchmarkTxnCommit measures the end-to-end commit path of the live
// engine (async group commit, no checkpointer running).
func BenchmarkTxnCommit(b *testing.B) {
	cfg := benchConfig(b, FuzzyCopy)
	cfg.GroupCommitInterval = time.Millisecond
	db, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	gen, err := workload.NewUniform(cfg.NumRecords, 5, cfg.RecordBytes, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := gen.Next()
		err := db.Exec(func(tx *Txn) error {
			for _, u := range spec.Updates {
				if err := tx.Write(u.Record, u.Value); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogicalVsPhysicalCommit compares the live engine's commit path
// with after-image logging vs operation logging, reporting log volume per
// transaction (the logical-logging advantage of Section 3.2).
func BenchmarkLogicalVsPhysicalCommit(b *testing.B) {
	for _, mode := range []string{"physical", "logical"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			cfg := benchConfig(b, COUCopy)
			cfg.GroupCommitInterval = time.Millisecond
			db, err := Open(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			img := make([]byte, cfg.RecordBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rid := uint64(i % cfg.NumRecords)
				err := db.Exec(func(tx *Txn) error {
					if mode == "logical" {
						return tx.ApplyOp(rid, OpAdd64, Add64Operand(1))
					}
					return tx.Write(rid, img)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// Close flushes the tail so LogBytes is complete.
			if err := db.Close(); err != nil {
				b.Fatal(err)
			}
			st := db.Stats()
			if st.TxnsCommitted > 0 {
				// The logical-logging advantage: bytes of log per txn.
				b.ReportMetric(float64(st.LogBytes)/float64(st.TxnsCommitted), "log-B/txn")
			}
		})
	}
}

// BenchmarkEngineCheckpointers measures a full checkpoint of a uniformly
// dirtied database under each algorithm on the live engine, reporting the
// modeled instruction cost alongside wall time.
func BenchmarkEngineCheckpointers(b *testing.B) {
	for _, alg := range Algorithms {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			cfg := benchConfig(b, alg)
			db, err := Open(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			gen, err := workload.NewUniform(cfg.NumRecords, 5, cfg.RecordBytes, 2)
			if err != nil {
				b.Fatal(err)
			}
			dirty := func() {
				for t := 0; t < 200; t++ {
					spec := gen.Next()
					err := db.Exec(func(tx *Txn) error {
						for _, u := range spec.Updates {
							if err := tx.Write(u.Record, u.Value); err != nil {
								return err
							}
						}
						return nil
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			dirty()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dirty()
				b.StartTimer()
				if _, err := db.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := db.Stats()
			if st.Checkpoints > 0 {
				b.ReportMetric(float64(st.SegmentsFlushed)/float64(st.Checkpoints), "segs/ckpt")
			}
			if perTxn, _, _, err := analytic.MeasuredOverhead(analytic.DefaultParams(), db.MeasuredCounts()); err == nil {
				b.ReportMetric(perTxn, "instr/txn")
			}
		})
	}
}

// BenchmarkCompactionAblation measures the log-size effect of the
// after-checkpoint head compaction: the same workload with and without
// it, reporting the final on-disk log size.
func BenchmarkCompactionAblation(b *testing.B) {
	for _, disabled := range []bool{false, true} {
		disabled := disabled
		name := "compaction-on"
		if disabled {
			name = "compaction-off"
		}
		b.Run(name, func(b *testing.B) {
			var logMB float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(b, FuzzyCopy)
				cfg.DisableLogCompaction = disabled
				db, err := Open(cfg)
				if err != nil {
					b.Fatal(err)
				}
				gen, err := workload.NewUniform(cfg.NumRecords, 5, cfg.RecordBytes, 9)
				if err != nil {
					b.Fatal(err)
				}
				for round := 0; round < 4; round++ {
					for t := 0; t < 100; t++ {
						spec := gen.Next()
						err := db.Exec(func(tx *Txn) error {
							for _, u := range spec.Updates {
								if err := tx.Write(u.Record, u.Value); err != nil {
									return err
								}
							}
							return nil
						})
						if err != nil {
							b.Fatal(err)
						}
					}
					if _, err := db.Checkpoint(); err != nil {
						b.Fatal(err)
					}
				}
				dir := db.Dir()
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}
				fi, err := os.Stat(filepath.Join(dir, "redo.log"))
				if err != nil {
					b.Fatal(err)
				}
				logMB = float64(fi.Size()) / 1e6
			}
			b.ReportMetric(logMB, "log-MB")
		})
	}
}

// BenchmarkRecover measures crash recovery of the live engine — load the
// backup copy, then one read of the log tail with redo — at three tail
// sizes: small (500 transactions), medium (4,000, the repo benchmark's
// stress-ckpt tail) and large (32,000; skipped under -short). Each
// transaction updates up to five 128-byte records. It reports replayed
// redo records per second of recovery and the MB of log scanned.
func BenchmarkRecover(b *testing.B) {
	for _, tier := range []struct {
		name string
		tail int
	}{{"small", 500}, {"medium", 4000}, {"large", 32000}} {
		b.Run(tier.name, func(b *testing.B) {
			if tier.tail > 4000 && testing.Short() {
				b.Skip("skipping the large log tail in short mode")
			}
			cfg := recoverSetup(b, tier.tail)
			b.ReportAllocs()
			b.ResetTimer()
			var rep *RecoveryReport
			for i := 0; i < b.N; i++ {
				db, r, err := Recover(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rep = r
				b.StopTimer()
				if err := db.Crash(); err != nil { // leave the files for the next iteration
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(rep.UpdatesApplied)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
			b.ReportMetric(float64(rep.LogBytesRead)/1e6, "log-MB")
		})
	}
}

// recoverSetup builds a database for BenchmarkRecover: 500 transactions,
// a checkpoint, then tail more transactions, closed so the whole tail is
// durable and recovery replays all of it.
func recoverSetup(b *testing.B, tail int) Config {
	b.Helper()
	cfg := benchConfig(b, COUCopy)
	db, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewUniform(cfg.NumRecords, 5, cfg.RecordBytes, 3)
	if err != nil {
		b.Fatal(err)
	}
	run := func(n int) {
		for t := 0; t < n; t++ {
			spec := gen.Next()
			err := db.Exec(func(tx *Txn) error {
				for _, u := range spec.Updates {
					if err := tx.Write(u.Record, u.Value); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	run(500)
	if _, err := db.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	run(tail)
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	return cfg
}
