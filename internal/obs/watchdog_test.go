package obs

import (
	"testing"
	"time"
)

// buildTree begins and ends a commit tree plus one unrelated root,
// returning the commit root's ID.
func buildTree(st *SpanTracer) SpanID {
	other := st.Begin(SpanCheckpoint, SpanNone, 99, 0)
	st.End(other)
	root := st.Begin(SpanCommit, SpanNone, 7, 0)
	child := st.Begin(SpanWALAppend, root, 7, 0)
	grand := st.Begin(SpanGroupCommitFlush, root, 7, 0)
	st.End(child)
	st.End(grand)
	st.End(root)
	return root
}

// TestWatchdogTrip: a threshold-exceeded commit captures exactly the
// offending span tree; under-threshold operations do not trip.
func TestWatchdogTrip(t *testing.T) {
	st := NewSpanTracer(64, 1)
	root := buildTree(st)
	wd := NewWatchdog(st)
	wd.SetThresholds(time.Millisecond, time.Second)

	wd.Check(WatchCommit, root, int64(time.Millisecond)-1)
	if wd.Trips() != 0 {
		t.Fatal("under-threshold commit tripped the watchdog")
	}
	wd.Check(WatchCommit, root, int64(2*time.Millisecond))
	if wd.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", wd.Trips())
	}
	ops := wd.SlowOps()
	if len(ops) != 1 {
		t.Fatalf("slow ops = %d, want 1", len(ops))
	}
	op := ops[0]
	if op.Kind != WatchCommit || op.Root != root || op.Dur != int64(2*time.Millisecond) {
		t.Fatalf("slow op = %+v", op)
	}
	// The dump holds the commit tree (3 spans), not the unrelated root.
	if len(op.Spans) != 3 {
		t.Fatalf("dump holds %d spans, want 3", len(op.Spans))
	}
	for _, sp := range op.Spans {
		if sp.Kind == SpanCheckpoint {
			t.Fatalf("unrelated span leaked into the tree dump: %+v", sp)
		}
	}

	// SlowOps lists trips oldest first, not slowest first: a slower
	// commit tripping second comes back second.
	for time.Now().UnixNano() <= op.Nanos {
		time.Sleep(time.Microsecond) // distinct trip stamps on coarse clocks
	}
	wd.Check(WatchCommit, root, int64(3*time.Millisecond))
	ops = wd.SlowOps()
	if len(ops) != 2 || ops[0].Dur != int64(2*time.Millisecond) || ops[1].Dur != int64(3*time.Millisecond) {
		t.Fatalf("slow ops not in trip order: %+v", ops)
	}
}

// TestWatchdogDisabled: zero thresholds never trip, and unsampled roots
// (SpanNone) dump the full retained ring.
func TestWatchdogDisabled(t *testing.T) {
	st := NewSpanTracer(64, 1)
	buildTree(st)
	wd := NewWatchdog(st)
	wd.Check(WatchCommit, SpanNone, int64(time.Hour))
	if wd.Trips() != 0 {
		t.Fatal("disabled watchdog tripped")
	}
	wd.SetThresholds(1, 1)
	wd.Check(WatchCheckpoint, SpanNone, int64(time.Hour))
	ops := wd.SlowOps()
	if len(ops) != 1 || ops[0].Kind != WatchCheckpoint {
		t.Fatalf("slow ops = %+v", ops)
	}
	if len(ops[0].Spans) != 4 { // unfiltered: whole retained ring
		t.Fatalf("unsampled dump holds %d spans, want 4", len(ops[0].Spans))
	}
}

// TestWatchdogRingWraps: more trips than watchdogKeep retain only the
// newest dumps, and a nil watchdog is a safe no-op.
func TestWatchdogRingWraps(t *testing.T) {
	st := NewSpanTracer(16, 1)
	wd := NewWatchdog(st)
	wd.SetThresholds(1, 0)
	for i := 0; i < watchdogKeep+3; i++ {
		wd.Check(WatchCommit, SpanNone, int64(time.Second)+int64(i))
	}
	if wd.Trips() != watchdogKeep+3 {
		t.Fatalf("trips = %d", wd.Trips())
	}
	if got := len(wd.SlowOps()); got != watchdogKeep {
		t.Fatalf("retained %d dumps, want %d", got, watchdogKeep)
	}

	var nilWd *Watchdog
	nilWd.SetThresholds(1, 1)
	nilWd.Check(WatchCommit, SpanNone, int64(time.Hour))
	if nilWd.Trips() != 0 || nilWd.SlowOps() != nil {
		t.Fatal("nil watchdog must be inert")
	}
}

// TestSpanTree: the filter keeps exactly the root's descendants and
// terminates on parents that fell off the ring.
func TestSpanTree(t *testing.T) {
	st := NewSpanTracer(64, 1)
	root := buildTree(st)
	spans := st.Dump()
	tree := SpanTree(spans, root)
	if len(tree) != 3 {
		t.Fatalf("tree size %d, want 3", len(tree))
	}
	if SpanTree(spans, SpanNone) != nil {
		t.Fatal("SpanNone must yield no tree")
	}
	// An orphan (parent never dumped) is not attributed to the root.
	orphanTree := SpanTree([]Span{{Seq: 50, Parent: SpanID(41), Kind: SpanWALAppend}}, root)
	if len(orphanTree) != 0 {
		t.Fatalf("orphan attributed: %+v", orphanTree)
	}
}
