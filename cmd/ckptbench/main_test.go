package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriterTxnsSumToTotal: the per-writer shares cover every requested
// transaction, differ by at most one, and go to the first writers.
func TestWriterTxnsSumToTotal(t *testing.T) {
	for _, c := range []struct{ txns, writers int }{
		{6000, 32}, {20000, 4}, {7, 3}, {3, 8}, {1, 1}, {0, 4},
	} {
		sum := 0
		for w := 0; w < c.writers; w++ {
			n := writerTxns(c.txns, c.writers, w)
			if lo := c.txns / c.writers; n != lo && n != lo+1 {
				t.Errorf("txns %d writers %d: writer %d runs %d", c.txns, c.writers, w, n)
			}
			sum += n
		}
		if sum != c.txns {
			t.Errorf("txns %d writers %d: shares sum to %d", c.txns, c.writers, sum)
		}
	}
}

// TestFlagUsage runs the command in a child process (the test binary,
// re-entered with CKPTBENCH_ARGS set) and checks its exit status and
// stderr: a flag combination that would silently be ignored is a usage
// error, exit status 2.
func TestFlagUsage(t *testing.T) {
	if args, ok := os.LookupEnv("CKPTBENCH_ARGS"); ok {
		os.Args = append([]string{"ckptbench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, c := range []struct {
		args   string
		code   int
		stderr string
	}{
		{"-speedup 20 -txns 200 -records 4096", 2, "-throttle"},
		{"-speedup 0.5 -txns 200 -records 4096", 2, "-throttle"},
		{"-throttle -speedup 20 -txns 50 -records 4096 -writers 2", 0, ""},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestFlagUsage$")
		cmd.Env = append(os.Environ(), "CKPTBENCH_ARGS="+c.args)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		code := 0
		if err := cmd.Run(); err != nil {
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				t.Fatalf("%s: %v", c.args, err)
			}
			code = ee.ExitCode()
		}
		if code != c.code || !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("ckptbench %s: exit %d, stderr %q; want exit %d naming %q", c.args, code, stderr.String(), c.code, c.stderr)
		}
	}
}

// setFlags sets the named benchmark flags for one test, restoring their
// previous values when the test ends.
func setFlags(t *testing.T, vals map[string]string) {
	t.Helper()
	for name, v := range vals {
		f := flag.Lookup(name)
		if f == nil {
			t.Fatalf("no flag -%s", name)
		}
		old := f.Value.String()
		t.Cleanup(func() { f.Value.Set(old) }) //nolint:errcheck // restores a value the flag printed
		if err := f.Value.Set(v); err != nil {
			t.Fatalf("-%s %s: %v", name, v, err)
		}
	}
}

// smallRun is a small run with a transaction count the writer count
// does not divide.
var smallRun = map[string]string{"txns": "301", "writers": "32", "records": "4096"}

// TestCommittedEqualsTxns runs the single-engine benchmark and requires
// it to commit exactly -txns transactions.
func TestCommittedEqualsTxns(t *testing.T) {
	setFlags(t, smallRun)
	res, err := run("COUCOPY", 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TxnsCommitted != uint64(*txns) {
		t.Fatalf("committed %d transactions, -txns %d", res.TxnsCommitted, *txns)
	}
}

// TestShardedCommittedEqualsTxns is the same check for the sharded run
// through the loopback network stack: -txns client batches commit.
func TestShardedCommittedEqualsTxns(t *testing.T) {
	setFlags(t, smallRun)
	setFlags(t, map[string]string{"shards": "2"})
	res, err := runSharded()
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != uint64(*txns) {
		t.Fatalf("committed %d batches, -txns %d", res.Batches, *txns)
	}
}

// TestWriterErrorFailsRun: a writer that cannot run its transactions
// (here: more distinct updates per transaction than records) fails the
// whole run in both modes instead of reporting a short count.
func TestWriterErrorFailsRun(t *testing.T) {
	for _, mode := range []struct{ name, shards string }{
		{"single", "0"}, {"sharded", "2"},
	} {
		t.Run(mode.name, func(t *testing.T) {
			setFlags(t, map[string]string{
				"records": "256", "updates": "300", "txns": "100", "writers": "2",
				"shards": mode.shards,
			})
			var err error
			if *shardsFlag > 0 {
				_, err = runSharded()
			} else {
				_, err = run("COUCOPY", 1)
			}
			if err == nil {
				t.Fatal("run with failing writers returned no error")
			}
		})
	}
}

// TestModelParamsMapping: a throttled run is priced at the disk the
// engine was paced with — sizes in words, the Table 2b times divided by
// the speedup, one disk per checkpoint worker — and the mapped
// parameters are valid.
func TestModelParamsMapping(t *testing.T) {
	setFlags(t, map[string]string{
		"records": "16384", "recbytes": "128", "segbytes": "32768",
		"updates": "5", "throttle": "true", "speedup": "10",
	})
	p := modelParams(4, 500)
	if p.SDB != float64(1<<14*128)/4 {
		t.Errorf("SDB = %v", p.SDB)
	}
	if p.SSeg != 8192 || p.SRec != 32 {
		t.Errorf("SSeg/SRec = %v/%v", p.SSeg, p.SRec)
	}
	if p.TSeek != 0.003 || p.TTrans != 3e-7 {
		t.Errorf("TSeek/TTrans = %v/%v (speedup not applied)", p.TSeek, p.TTrans)
	}
	if p.NDisks != 4 {
		t.Errorf("NDisks = %v, want one per worker", p.NDisks)
	}
	if p.Lambda != 500 || p.NRU != 5 {
		t.Errorf("Lambda/NRU = %v/%v", p.Lambda, p.NRU)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("mapped params invalid: %v", err)
	}
}

// TestRunAgreesLoosely executes a short paced, throttled COUCOPY run at
// one and at four checkpoint workers and requires the live measurements
// to land within a loose factor of the model's prediction — the smoke
// test of the paper's Section 5 model-verification goal.
func TestRunAgreesLoosely(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock paced run")
	}
	for _, par := range []int{1, 4} {
		t.Run(map[int]string{1: "workers=1", 4: "workers=4"}[par], func(t *testing.T) {
			setFlags(t, map[string]string{
				"records": "8192", "recbytes": "128", "tps": "400", "txns": "600",
				"writers": "2", "throttle": "true", "speedup": "2", "seed": "1",
			})
			res, err := run("COUCOPY", par)
			if err != nil {
				t.Fatal(err)
			}
			a := res.Analytic
			if res.Checkpoints == 0 || res.TxnsPerSecond <= 0 || a == nil || a.PredictedOverheadPerTxn <= 0 {
				t.Fatalf("no activity or no prediction: %+v", res)
			}
			within := func(name string, got, want float64) {
				const factor = 3
				if got > want*factor || got < want/factor {
					t.Errorf("%s: measured %.4f vs model %.4f (beyond %dx)", name, got, want, factor)
				}
			}
			within("segments/ckpt", a.MeasuredSegsPerCkpt, a.PredictedSegsPerCkpt)
			within("active ckpt secs", a.MeasuredActiveCkptSecs, a.PredictedActiveCkptSecs)
			within("instr/txn", a.MeasuredOverheadPerTxn, a.PredictedOverheadPerTxn)
			if a.MeasuredPRestart != 0 {
				t.Errorf("COUCOPY restarted transactions: %v", a.MeasuredPRestart)
			}
		})
	}
}

// TestAppendReadsV4: -append keeps the runs of a file written under the
// previous schema.
func TestAppendReadsV4(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	v4 := `{"schema": "mmdb/ckptbench/v4", "runs": [{"algorithm": "COUCOPY",
		"config": {"parallelism": 4, "throttled": true},
		"analytic": {"measured_overhead_per_txn": 900}}],
		"sharded_runs": [{"mode": "loopback", "shards": 4}]}`
	if err := os.WriteFile(path, []byte(v4), 0o644); err != nil {
		t.Fatal(err)
	}
	file, err := loadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Runs) != 1 || len(file.ShardedRuns) != 1 {
		t.Fatalf("loaded %d runs, %d sharded", len(file.Runs), len(file.ShardedRuns))
	}
	r := file.Runs[0]
	if r.Algorithm != "COUCOPY" || r.Config.Parallelism != 4 || r.Analytic.MeasuredOverheadPerTxn != 900 {
		t.Errorf("run not preserved: %+v", r)
	}
}
