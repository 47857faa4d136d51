package mmdb

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"mmdb/analytic"
	"mmdb/workload"
)

func testConfig(t *testing.T, alg Algorithm) Config {
	t.Helper()
	cfg := Config{
		Dir:         t.TempDir(),
		NumRecords:  512,
		RecordBytes: 64,
		Algorithm:   alg,
		SyncCommit:  true,
	}
	if alg == FastFuzzy {
		cfg.StableLogTail = true
	}
	return cfg
}

func TestOpenExecReadBack(t *testing.T) {
	db, err := Open(testConfig(t, COUCopy))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if err := db.Exec(func(tx *Txn) error {
		return tx.Write(7, []byte("hello"))
	}); err != nil {
		t.Fatal(err)
	}
	got, err := db.ReadRecord(7)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:5]) != "hello" {
		t.Errorf("read back %q", got[:5])
	}
	if db.NumRecords() != 512 || db.RecordBytes() != 64 {
		t.Errorf("geometry accessors wrong: %d × %d", db.NumRecords(), db.RecordBytes())
	}
	// Default segment size: 256 records/segment → 2 segments.
	if db.NumSegments() != 2 {
		t.Errorf("NumSegments = %d, want 2", db.NumSegments())
	}
}

func TestManualTxnLifecycle(t *testing.T) {
	db, err := Open(testConfig(t, FuzzyCopy))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if tx.ID() == 0 {
		t.Error("transaction ID should be nonzero")
	}
	if err := tx.Write(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	v, err := tx.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 'x' {
		t.Error("own write not visible")
	}
	tx.Abort()
	if _, err := tx.Read(1); !errors.Is(err, ErrTxnDone) {
		t.Errorf("read after abort: %v", err)
	}
	got, err := db.ReadRecord(1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Error("aborted write installed")
	}
}

func TestConfigValidationErrors(t *testing.T) {
	cases := []Config{
		{},                        // everything missing
		{Dir: "x", NumRecords: 1}, // no record size / algorithm
		{Dir: "x", NumRecords: 1, RecordBytes: 8, Algorithm: Algorithm(99)},
		{Dir: "x", NumRecords: 1, RecordBytes: 8, SegmentBytes: 12, Algorithm: FuzzyCopy}, // not a multiple
		{Dir: "x", NumRecords: 1, RecordBytes: 8, Algorithm: FastFuzzy},                   // needs stable tail
	}
	for i, cfg := range cases {
		if _, err := Open(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestParseAlgorithmAndNames(t *testing.T) {
	for _, a := range Algorithms {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseAlgorithm("bogus"); err == nil {
		t.Error("bogus algorithm parsed")
	}
}

// TestAllAlgorithmsIsolated: mmdb.Algorithms is a copy of the one
// enumeration, so a caller that overwrites it does not change which names
// the parser accepts.
func TestAllAlgorithmsIsolated(t *testing.T) {
	if len(Algorithms) != len(analytic.Algorithms) {
		t.Fatalf("mmdb.Algorithms has %d entries, analytic has %d", len(Algorithms), len(analytic.Algorithms))
	}
	saved := append([]Algorithm(nil), Algorithms...)
	defer copy(Algorithms, saved)
	for i := range Algorithms {
		Algorithms[i] = Algorithm(99)
	}
	for _, a := range saved {
		if got, err := analytic.Parse(a.String()); err != nil || got != a {
			t.Errorf("after mutating mmdb.Algorithms, analytic.Parse(%q) = %v, %v", a.String(), got, err)
		}
	}
}

// TestConfigValidateThrottleSpeedup: ThrottleSpeedup alone turns pacing
// on, and a speedup below 1 is rejected rather than slowing the modeled
// disk down.
func TestConfigValidateThrottleSpeedup(t *testing.T) {
	for _, c := range []struct {
		speedup float64
		ok      bool
	}{
		{0, true}, {1, true}, {20, true}, {0.5, false}, {-1, false},
	} {
		cfg := Config{Dir: t.TempDir(), NumRecords: 16, RecordBytes: 8,
			Algorithm: COUCopy, ThrottleSpeedup: c.speedup}
		err := cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("ThrottleSpeedup %v: Validate = %v, want ok=%v", c.speedup, err, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		p, err := cfg.engineParams()
		if err != nil || p.ThrottleSpeedup != c.speedup {
			t.Errorf("ThrottleSpeedup %v reaches the engine as %v (%v)", c.speedup, p.ThrottleSpeedup, err)
		}
	}
}

func TestCrashRecoverPublicAPI(t *testing.T) {
	cfg := testConfig(t, TwoColorCopy)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		i := i
		if err := db.Exec(func(tx *Txn) error {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(i+1))
			return tx.Write(uint64(i%db.NumRecords()), b[:])
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(func(tx *Txn) error {
		return tx.Write(3, []byte("post-checkpoint"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	// Open must refuse; Recover must work; OpenOrRecover must recover.
	if _, err := Open(cfg); !errors.Is(err, ErrExistingDatabase) {
		t.Fatalf("Open on crashed dir: %v, want ErrExistingDatabase", err)
	}
	db2, rep, err := OpenOrRecover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if rep == nil || !rep.UsedCheckpoint {
		t.Fatalf("recovery report = %+v", rep)
	}
	got, err := db2.ReadRecord(3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:15]) != "post-checkpoint" {
		t.Errorf("post-checkpoint write lost: %q", got[:15])
	}
}

func TestOpenOrRecoverFreshDir(t *testing.T) {
	cfg := testConfig(t, FuzzyCopy)
	db, rep, err := OpenOrRecover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if rep != nil {
		t.Errorf("fresh open returned a recovery report: %+v", rep)
	}
}

// TestBankInvariantAcrossCrashes drives the bank workload with the
// checkpoint loop running, crashes, recovers, and checks the total-balance
// invariant — transaction atomicity end to end through the public API.
func TestBankInvariantAcrossCrashes(t *testing.T) {
	for _, alg := range Algorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			cfg := testConfig(t, alg)
			cfg.AutoCheckpoint = true
			cfg.CheckpointInterval = 0
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}

			bank, err := workload.NewBank(64, cfg.RecordBytes, 1000, int64(alg))
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Exec(func(tx *Txn) error { return bank.InitTxn(tx) }); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				from, to, amt := bank.RandomTransfer()
				if err := db.Exec(func(tx *Txn) error {
					return bank.Transfer(tx, from, to, amt)
				}); err != nil {
					t.Fatalf("transfer %d: %v", i, err)
				}
			}
			if err := db.Crash(); err != nil {
				t.Fatal(err)
			}

			db2, _, err := Recover(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			total, err := bank.Total(db2.ReadRecord)
			if err != nil {
				t.Fatal(err)
			}
			if total != bank.ExpectedTotal() {
				t.Errorf("total balance after crash = %d, want %d (atomicity broken)",
					total, bank.ExpectedTotal())
			}
		})
	}
}

func TestCheckpointLoopThroughAPI(t *testing.T) {
	cfg := testConfig(t, FastFuzzy)
	cfg.CheckpointInterval = time.Millisecond
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.StartCheckpointLoop()
	deadline := time.Now().Add(5 * time.Second)
	for db.Stats().Checkpoints < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoints")
		}
		time.Sleep(time.Millisecond)
	}
	db.StopCheckpointLoop()
}

func TestStatsAndStringers(t *testing.T) {
	cfg := testConfig(t, COUFlush)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Exec(func(tx *Txn) error { return tx.Write(0, []byte("a")) }); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.TxnsCommitted != 1 {
		t.Errorf("stats: %+v", st)
	}
	if db.String() == "" || db.Dir() != cfg.Dir {
		t.Error("String/Dir broken")
	}
	if db.Config().Algorithm != COUFlush {
		t.Error("Config() round trip broken")
	}
}
