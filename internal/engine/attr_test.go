package engine

import (
	"sync"
	"testing"
	"time"

	"mmdb/internal/obs"
)

// TestCommitAttributionReconciles cross-checks the per-phase commit
// attribution histograms against the commit latency histogram on a
// synchronous-commit workload: every committed write transaction feeds
// the WAL-append and flush-wait phases exactly once, and the in-commit
// phase sums can never exceed the total commit time they nest inside
// (allowing a small clock-jitter tolerance; see DESIGN.md §19).
func TestCommitAttributionReconciles(t *testing.T) {
	p := testParams(t, FuzzyCopy)
	p.SpanSampleEvery = 1
	e := mustOpen(t, p)
	defer e.Close()

	const n = 300
	val := encVal(1)
	for i := 0; i < n; i++ {
		if err := e.ExecWrite(uint64(i%e.NumRecords()), val); err != nil {
			t.Fatal(err)
		}
	}

	commitH := e.eo.commitH
	walH := e.eo.attrWALAppendH
	flushH := e.eo.attrFlushWaitH
	if commitH.Count() != n {
		t.Fatalf("commit histogram count = %d, want %d", commitH.Count(), n)
	}
	// Full coverage, independent of span sampling: one observation per
	// committed write transaction in each in-commit phase.
	if walH.Count() != n {
		t.Errorf("wal_append attribution count = %d, want %d", walH.Count(), n)
	}
	if flushH.Count() != n {
		t.Errorf("flush_wait attribution count = %d (SyncCommit), want %d", flushH.Count(), n)
	}

	// The in-commit phases nest inside Commit(), so their raw sums are
	// bounded by the commit sum. Phase boundaries are stamped by separate
	// clock reads, so allow 5% plus 50µs per commit of jitter.
	nested := walH.Sum() + flushH.Sum() + e.eo.attrCouCopyH.Sum() +
		e.eo.attrZigzagH.Sum() + e.eo.attrHgStallH.Sum()
	limit := commitH.Sum() + commitH.Sum()/20 + 50_000*n
	if nested > limit {
		t.Errorf("nested attribution sum %d ns exceeds commit sum %d ns (+tolerance %d)",
			nested, commitH.Sum(), limit)
	}
	if nested == 0 {
		t.Error("nested attribution sum is zero; phases observed nothing")
	}
}

// TestInterferenceAttributionMatchesCounters pins the coverage invariant
// for the checkpoint-interference phases: the attribution histograms
// observe exactly once per counted event — COU old-version copies,
// zigzag flips, hourglass window stalls — no matter how writers and the
// checkpointer interleave.
func TestInterferenceAttributionMatchesCounters(t *testing.T) {
	for _, alg := range []Algorithm{COUCopy, Zigzag, Hourglass} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			p := testParams(t, alg)
			p.SpanSampleEvery = 1
			e := mustOpen(t, p)
			defer e.Close()

			val := encVal(3)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := e.ExecWrite(uint64(i%e.NumRecords()), val); err != nil {
						t.Errorf("ExecWrite: %v", err)
						return
					}
				}
			}()
			for c := 0; c < 3; c++ {
				if _, err := e.Checkpoint(); err != nil {
					t.Fatalf("Checkpoint: %v", err)
				}
			}
			close(stop)
			wg.Wait()

			st := e.Stats()
			switch alg {
			case COUCopy, Hourglass:
				if got := e.eo.attrCouCopyH.Count(); got != st.COUCopies {
					t.Errorf("cou_copy attribution count = %d, COUCopies counter = %d", got, st.COUCopies)
				}
			case Zigzag:
				if got := e.eo.attrZigzagH.Count(); got != st.ZigzagFlips {
					t.Errorf("zigzag_flip attribution count = %d, ZigzagFlips counter = %d", got, st.ZigzagFlips)
				}
			}
			if alg == Hourglass {
				if got := e.eo.attrHgStallH.Count(); got != st.HourglassWaits {
					t.Errorf("hourglass_stall attribution count = %d, HourglassWaits counter = %d", got, st.HourglassWaits)
				}
			}
		})
	}
}

// TestSpanTreesThroughEngine drives a traced synchronous-commit workload,
// an aborted transaction, a checkpoint, and a reopen, and checks the span
// ring holds properly parented trees for every fact the engine records:
// commit roots with wal_append and group_commit_flush children, a
// txn_abort under the aborted commit root, a checkpoint root with
// ckpt_segment and log_compact children, and a recovery root with its
// three phase children.
func TestSpanTreesThroughEngine(t *testing.T) {
	p := testParams(t, FuzzyCopy)
	p.SpanSampleEvery = 1
	e := mustOpen(t, p)
	defer func() {
		if e != nil {
			e.Close()
		}
	}()

	val := encVal(5)
	for i := 0; i < 32; i++ {
		if err := e.ExecWrite(uint64(i%e.NumRecords()), val); err != nil {
			t.Fatal(err)
		}
	}
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(1, encVal(6)); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := e.Stats().LogCompactions; n == 0 {
		t.Fatal("checkpoint freed no log; the log_compact check would be vacuous")
	}

	spans := e.SpanEvents()
	byID := make(map[obs.SpanID]obs.Span, len(spans))
	for _, s := range spans {
		byID[s.ID()] = s
	}
	// parentIs reports whether s hangs off a retained span of kind k.
	parentIs := func(s obs.Span, k obs.SpanKind) bool {
		parent, ok := byID[s.Parent]
		return ok && parent.Kind == k
	}
	var commitRoots, walChildren, flushChildren, aborts, ckptRoots, segChildren, compacts int
	for _, s := range spans {
		switch s.Kind {
		case obs.SpanCommit:
			if s.Parent != obs.SpanNone {
				t.Errorf("commit span %d has parent %d, want root", s.Seq, s.Parent)
			}
			commitRoots++
		case obs.SpanWALAppend, obs.SpanGroupCommitFlush:
			if !parentIs(s, obs.SpanCommit) {
				t.Errorf("%v span %d: parent %d is not a commit root in the ring", s.Kind, s.Seq, s.Parent)
				continue
			}
			parent := byID[s.Parent]
			if s.Begin < parent.Begin || s.Begin+s.Dur > parent.Begin+parent.Dur+int64(time.Millisecond) {
				t.Errorf("%v span %d [%d,+%d] does not nest in commit [%d,+%d]",
					s.Kind, s.Seq, s.Begin, s.Dur, parent.Begin, parent.Dur)
			}
			if s.Kind == obs.SpanWALAppend {
				walChildren++
			} else {
				flushChildren++
			}
		case obs.SpanTxnAbort:
			if !parentIs(s, obs.SpanCommit) || s.A != tx.ID() {
				t.Errorf("txn_abort span %+v: want a child of the commit root of txn %d", s, tx.ID())
			}
			aborts++
		case obs.SpanCheckpoint:
			ckptRoots++
		case obs.SpanCkptSegment:
			if !parentIs(s, obs.SpanCheckpoint) {
				t.Errorf("ckpt_segment span %d: parent %d is not a checkpoint root", s.Seq, s.Parent)
			}
			segChildren++
		case obs.SpanLogCompact:
			if !parentIs(s, obs.SpanCheckpoint) {
				t.Errorf("log_compact span %d: parent %d is not a checkpoint root", s.Seq, s.Parent)
			}
			compacts++
		}
	}
	if commitRoots == 0 || walChildren == 0 || flushChildren == 0 {
		t.Errorf("commit trees incomplete: %d roots, %d wal_append, %d group_commit_flush",
			commitRoots, walChildren, flushChildren)
	}
	if aborts != 1 {
		t.Errorf("txn_abort spans = %d, want 1", aborts)
	}
	if ckptRoots != 1 || segChildren == 0 || compacts != 1 {
		t.Errorf("checkpoint tree incomplete: %d roots, %d segment children, %d log_compact",
			ckptRoots, segChildren, compacts)
	}

	// A reopen records one recovery tree with its three phases.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e, _, err = Recover(p); err != nil {
		t.Fatal(err)
	}
	spans = e.SpanEvents()
	byID = make(map[obs.SpanID]obs.Span, len(spans))
	for _, s := range spans {
		byID[s.ID()] = s
	}
	phases := make(map[obs.SpanKind]int)
	for _, s := range spans {
		switch s.Kind {
		case obs.SpanRecovery:
			phases[s.Kind]++
		case obs.SpanRecBackupLoad, obs.SpanRecLogScan, obs.SpanRecRedoApply:
			if !parentIs(s, obs.SpanRecovery) {
				t.Errorf("%v span %d: parent %d is not the recovery root", s.Kind, s.Seq, s.Parent)
			}
			phases[s.Kind]++
		}
	}
	for _, k := range []obs.SpanKind{obs.SpanRecovery, obs.SpanRecBackupLoad, obs.SpanRecLogScan, obs.SpanRecRedoApply} {
		if phases[k] != 1 {
			t.Errorf("%v spans after reopen = %d, want 1", k, phases[k])
		}
	}
}

// TestSlowOpWatchdogThroughEngine arms a zero-distance commit threshold
// (1ns — every commit is "slow") and checks the watchdog captures span
// trees for the offending commits, then verifies a disarmed watchdog
// stays silent.
func TestSlowOpWatchdogThroughEngine(t *testing.T) {
	p := testParams(t, FuzzyCopy)
	p.SpanSampleEvery = 1
	p.SlowOpCommitThreshold = time.Nanosecond
	e := mustOpen(t, p)
	defer e.Close()

	val := encVal(8)
	for i := 0; i < 16; i++ {
		if err := e.ExecWrite(uint64(i), val); err != nil {
			t.Fatal(err)
		}
	}
	if e.Watchdog().Trips() == 0 {
		t.Fatal("watchdog never tripped with a 1ns threshold")
	}
	ops := e.SlowOps()
	if len(ops) == 0 {
		t.Fatal("no slow ops captured")
	}
	for _, op := range ops {
		if op.Kind != obs.WatchCommit {
			t.Errorf("slow op kind = %v, want commit", op.Kind)
		}
		if len(op.Spans) == 0 {
			t.Errorf("slow op (root %d) captured no spans", op.Root)
		}
		for _, s := range op.Spans {
			if s.ID() != op.Root && s.Parent == obs.SpanNone {
				t.Errorf("slow-op dump contains unrelated root span %d (%v)", s.Seq, s.Kind)
			}
		}
	}

	// Disarmed: no further trips.
	p2 := testParams(t, FuzzyCopy)
	p2.Dir = t.TempDir()
	e2 := mustOpen(t, p2)
	defer e2.Close()
	for i := 0; i < 8; i++ {
		if err := e2.ExecWrite(uint64(i), val); err != nil {
			t.Fatal(err)
		}
	}
	if n := e2.Watchdog().Trips(); n != 0 {
		t.Errorf("disarmed watchdog tripped %d times", n)
	}
}
