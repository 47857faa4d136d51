package engine

import (
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"mmdb/internal/obs"
)

// TestLastIntervalZeroUntilSecondCheckpoint pins the documented
// LastInterval semantics: the paper's checkpoint interval I is a
// begin-to-begin gap, so it stays zero through the entire first
// checkpoint and becomes non-zero only once a second checkpoint has
// begun.
func TestLastIntervalZeroUntilSecondCheckpoint(t *testing.T) {
	e := mustOpen(t, testParams(t, FuzzyCopy))
	defer e.Close()

	if err := e.Exec(func(tx *Txn) error { return tx.Write(1, encVal(7)) }); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if st := e.Stats(); st.LastInterval != 0 {
		t.Fatalf("LastInterval = %v before any checkpoint, want 0", st.LastInterval)
	}

	if _, err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint 1: %v", err)
	}
	st := e.Stats()
	if st.Checkpoints != 1 {
		t.Fatalf("Checkpoints = %d, want 1", st.Checkpoints)
	}
	if st.LastCheckpointTime <= 0 || st.TotalCheckpointTime <= 0 {
		t.Fatalf("checkpoint times not recorded: last %v total %v", st.LastCheckpointTime, st.TotalCheckpointTime)
	}
	if st.LastInterval != 0 {
		t.Fatalf("LastInterval = %v after the first checkpoint, want 0 until a second begins", st.LastInterval)
	}

	time.Sleep(2 * time.Millisecond) // make the begin-to-begin gap visible
	if _, err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint 2: %v", err)
	}
	st = e.Stats()
	if st.LastInterval <= 0 {
		t.Fatalf("LastInterval = %v after the second checkpoint, want > 0", st.LastInterval)
	}
	if st.LastInterval < 2*time.Millisecond {
		t.Fatalf("LastInterval = %v, want at least the 2ms gap between begins", st.LastInterval)
	}
}

// TestStatsConcurrentAllAlgorithms hammers Stats, the metrics Gather,
// and the span-ring dump while writers and checkpoints run, across all eight
// algorithms. Its value is under -race (the race gate runs it): every
// snapshot path must be safe against the hot-path atomics.
func TestStatsConcurrentAllAlgorithms(t *testing.T) {
	for _, alg := range allAlgorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			e := mustOpen(t, testParams(t, alg))
			defer e.Close()

			const writerN, txnsPer, ckpts = 3, 40, 5
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < writerN; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < txnsPer; i++ {
						rid := uint64((w*txnsPer + i) % e.NumRecords())
						if err := e.Exec(func(tx *Txn) error {
							return tx.Write(rid, encVal(uint64(i)))
						}); err != nil {
							t.Errorf("writer %d: %v", w, err)
							return
						}
					}
				}(w)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < ckpts; i++ {
					if _, err := e.Checkpoint(); err != nil {
						t.Errorf("Checkpoint: %v", err)
						return
					}
				}
			}()

			var readers sync.WaitGroup
			for r := 0; r < 3; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						st := e.Stats()
						if st.TxnsCommitted > st.TxnsBegun {
							t.Errorf("committed %d > begun %d", st.TxnsCommitted, st.TxnsBegun)
							return
						}
						_ = e.MetricsRegistry().Gather()
						_ = e.SpanEvents()
					}
				}()
			}

			wg.Wait()
			close(stop)
			readers.Wait()

			st := e.Stats()
			if st.Checkpoints != ckpts {
				t.Errorf("Checkpoints = %d, want %d", st.Checkpoints, ckpts)
			}
			if want := uint64(writerN * txnsPer); st.TxnsCommitted < want {
				t.Errorf("TxnsCommitted = %d, want >= %d", st.TxnsCommitted, want)
			}
			if h := e.eo.commitH; h.Count() < uint64(writerN*txnsPer) {
				t.Errorf("commit histogram count = %d, want >= %d", h.Count(), writerN*txnsPer)
			}
		})
	}
}

// TestMetricNamingConvention guards the exposition namespace: every
// registered metric is mmdb_<subsystem>_<name>[_unit], counters end in
// _total, and histograms carry an explicit unit suffix.
func TestMetricNamingConvention(t *testing.T) {
	e := mustOpen(t, testParams(t, COUCopy))
	defer e.Close()

	nameRe := regexp.MustCompile(`^mmdb(_[a-z0-9]+){2,}$`)
	subsystems := map[string]bool{
		"engine": true, "wal": true, "backup": true,
		"lockmgr": true, "recovery": true, "kvstore": true,
		"ckpt": true,
		// commit_attr_* decompose commit latency per phase; runtime_* are
		// the Go runtime harvester's gauges.
		"commit": true, "runtime": true,
	}
	// Histograms carry either a physical unit (_seconds, _bytes) or a
	// count unit naming the thing counted (_segments, _records).
	histUnits := map[string]bool{
		"seconds": true, "bytes": true,
		"segments": true, "records": true,
	}

	pts := e.MetricsRegistry().Gather()
	if len(pts) == 0 {
		t.Fatal("registry gathered no metrics")
	}
	for _, pt := range pts {
		if !nameRe.MatchString(pt.Name) {
			t.Errorf("metric %q does not match mmdb_<subsystem>_<name>[_unit]", pt.Name)
			continue
		}
		parts := strings.Split(pt.Name, "_")
		if !subsystems[parts[1]] {
			t.Errorf("metric %q: unknown subsystem %q", pt.Name, parts[1])
		}
		switch pt.Kind {
		case obs.KindCounter:
			if parts[len(parts)-1] != "total" {
				t.Errorf("counter %q must end in _total", pt.Name)
			}
		case obs.KindHistogram:
			if !histUnits[parts[len(parts)-1]] {
				t.Errorf("histogram %q must end in a unit suffix (_seconds, _bytes, _segments, or _records)", pt.Name)
			}
		}
	}
}
