package main

import "testing"

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

// setFlags points the benchmark's flags at a small run with a
// transaction count the writer count does not divide, restoring them
// when the test ends.
func setFlags(t *testing.T) {
	t.Helper()
	oldTxns, oldWriters, oldRecords, oldShards := *txns, *writers, *records, *shardsFlag
	t.Cleanup(func() {
		*txns, *writers, *records, *shardsFlag = oldTxns, oldWriters, oldRecords, oldShards
	})
	*txns, *writers, *records = 301, 32, 4096
}

// TestCommittedEqualsTxns runs the single-engine benchmark and requires
// it to commit exactly -txns transactions.
func TestCommittedEqualsTxns(t *testing.T) {
	setFlags(t)
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
	setFlags(t)
	*shardsFlag = 2
	res, err := runSharded()
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != uint64(*txns) {
		t.Fatalf("committed %d batches, -txns %d", res.Batches, *txns)
	}
}
