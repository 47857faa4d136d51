package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestRandomizedOperationSoak drives one engine per seed through a random
// interleaving of committing transactions, aborting transactions, reads,
// logical operations (under COU), checkpoints, and full crash/recover
// cycles, checking every read and every recovery against a map oracle.
// This is the repository's broadest single invariant: the database equals
// the committed history, always.
func TestRandomizedOperationSoak(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			soak(t, seed)
		})
	}
}

func soak(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	alg := allAlgorithms[rng.Intn(len(allAlgorithms))]
	p := testParams(t, alg)
	p.Full = rng.Intn(4) == 0
	if rng.Intn(3) == 0 {
		p.StableTail = true
	}
	if rng.Intn(4) == 0 {
		p.DisableLogCompaction = true
	}
	t.Logf("seed %d: %v full=%v stable=%v compaction=%v",
		seed, alg, p.Full, p.StableTail, !p.DisableLogCompaction)

	e := mustOpen(t, p)
	defer func() { e.Close() }()
	oracle := make(map[uint64]uint64)
	n := uint64(e.NumRecords())

	commitTxn := func() {
		tx, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		pending := map[uint64]uint64{}
		for j := 0; j < 1+rng.Intn(6); j++ {
			rid := rng.Uint64() % n
			if alg.CopyOnUpdate() && rng.Intn(3) == 0 {
				// Logical delta against the transaction's own view.
				delta := int64(rng.Intn(2001) - 1000)
				if err := tx.ApplyOp(rid, OpAdd64, Add64Operand(delta)); err != nil {
					t.Fatal(err)
				}
				base, ok := pending[rid]
				if !ok {
					base = oracle[rid]
				}
				pending[rid] = base + uint64(delta)
			} else {
				v := rng.Uint64()
				if err := tx.Write(rid, encVal(v)); err != nil {
					t.Fatal(err)
				}
				pending[rid] = v
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		for rid, v := range pending {
			oracle[rid] = v
		}
	}

	abortTxn := func() {
		tx, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 1+rng.Intn(4); j++ {
			if err := tx.Write(rng.Uint64()%n, encVal(rng.Uint64())); err != nil {
				t.Fatal(err)
			}
		}
		tx.Abort()
	}

	checkRead := func() {
		rid := rng.Uint64() % n
		if got := readVal(t, e, rid); got != oracle[rid] {
			t.Fatalf("record %d = %d, want %d", rid, got, oracle[rid])
		}
	}

	crashRecover := func() {
		if err := e.Crash(); err != nil {
			t.Fatal(err)
		}
		var err error
		e, _, err = Recover(p)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		verifyOracle(t, e, oracle)
	}

	steps := 400
	if testing.Short() {
		steps = 150
	}
	for step := 0; step < steps; step++ {
		switch r := rng.Intn(100); {
		case r < 55:
			commitTxn()
		case r < 65:
			abortTxn()
		case r < 90:
			checkRead()
		case r < 97:
			if _, err := e.Checkpoint(); err != nil {
				t.Fatalf("step %d checkpoint: %v", step, err)
			}
		default:
			crashRecover()
		}
	}
	crashRecover()
}
