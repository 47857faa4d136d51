package obs

import (
	"sync"
	"testing"
)

// TestSpanBasic: a parent/child tree comes back in begin order with
// payloads, parent links, and durations intact.
func TestSpanBasic(t *testing.T) {
	st := NewSpanTracer(64, 1)
	root := st.BeginSampled(SpanCommit, 7, 0)
	if root == SpanNone {
		t.Fatal("sampleEvery=1 must trace every root")
	}
	child := st.Begin(SpanWALAppend, root, 7, 0)
	st.End(child)
	grand := st.Begin(SpanGroupCommitFlush, root, 7, 42)
	st.End(grand)
	st.End(root)

	spans := st.Dump()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Kind != SpanCommit || spans[0].Parent != SpanNone || spans[0].A != 7 {
		t.Fatalf("root span = %+v", spans[0])
	}
	if spans[0].ID() != root {
		t.Fatalf("root ID = %d, want %d", spans[0].ID(), root)
	}
	if spans[1].Kind != SpanWALAppend || spans[1].Parent != root {
		t.Fatalf("child span = %+v", spans[1])
	}
	if spans[2].Kind != SpanGroupCommitFlush || spans[2].Parent != root || spans[2].B != 42 {
		t.Fatalf("second child = %+v", spans[2])
	}
	for _, sp := range spans {
		if sp.Begin == 0 || sp.Dur < 0 {
			t.Fatalf("bad timestamps: %+v", sp)
		}
	}
	// Children nest within the root's interval.
	rootEnd := spans[0].Begin + spans[0].Dur
	for _, c := range spans[1:] {
		if c.Begin < spans[0].Begin || c.Begin+c.Dur > rootEnd {
			t.Fatalf("child %+v not nested in root [%d,%d]", c, spans[0].Begin, rootEnd)
		}
	}
}

// TestSpanSampling: with sampleEvery=4 exactly one in four roots is
// traced, and unsampled roots cost nothing in the ring.
func TestSpanSampling(t *testing.T) {
	st := NewSpanTracer(64, 4)
	traced := 0
	for i := 0; i < 16; i++ {
		if id := st.BeginSampled(SpanCommit, uint64(i), 0); id != SpanNone {
			traced++
			st.End(id)
		}
	}
	if traced != 4 {
		t.Fatalf("traced %d of 16 roots with sampleEvery=4, want 4", traced)
	}
	if got := len(st.Dump()); got != 4 {
		t.Fatalf("ring holds %d spans, want 4", got)
	}
}

// TestSpanInFlightSkipped: a span without an End is not dumped; ending it
// makes it appear.
func TestSpanInFlightSkipped(t *testing.T) {
	st := NewSpanTracer(16, 1)
	id := st.Begin(SpanCheckpoint, SpanNone, 1, 0)
	if got := len(st.Dump()); got != 0 {
		t.Fatalf("in-flight span dumped: %d spans", got)
	}
	st.End(id)
	if got := len(st.Dump()); got != 1 {
		t.Fatalf("ended span not dumped: %d spans", got)
	}
}

// TestSpanWraparoundDropsLateEnd: once the ring wraps past a span's slot,
// its End is dropped instead of corrupting the new occupant, and exactly
// the newest capacity spans remain, in begin order.
func TestSpanWraparoundDropsLateEnd(t *testing.T) {
	const capacity = 16
	st := NewSpanTracer(capacity, 1)
	old := st.Begin(SpanCommit, SpanNone, 999, 0)
	for i := 0; i < capacity; i++ { // wrap the ring past old's slot
		id := st.Begin(SpanWALAppend, SpanNone, uint64(i), 0)
		st.End(id)
	}
	st.End(old) // late End for a reclaimed slot
	spans := st.Dump()
	if len(spans) != capacity {
		t.Fatalf("got %d spans after wrap, want %d", len(spans), capacity)
	}
	for i, sp := range spans {
		if sp.Seq != uint64(i+1) || sp.A != uint64(i) {
			t.Fatalf("span %d after wrap: seq=%d a=%d, want seq=%d a=%d", i, sp.Seq, sp.A, i+1, i)
		}
	}
}

// TestSpanConcurrent: many writers opening and closing span trees while a
// reader dumps; under -race this proves the atomic slot protocol. Dumped
// spans must be strictly ordered with consistent payloads.
func TestSpanConcurrent(t *testing.T) {
	st := NewSpanTracer(64, 1)
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				root := st.BeginSampled(SpanCommit, 1, 0)
				child := st.Begin(SpanWALAppend, root, 1, 0)
				st.End(child)
				st.End(root)
			}
		}()
	}
	stop := make(chan struct{})
	go func() {
		defer close(stop)
		for i := 0; i < 200; i++ {
			spans := st.Dump()
			for j := 1; j < len(spans); j++ {
				if spans[j].Seq <= spans[j-1].Seq {
					t.Errorf("dump not strictly ordered: %d after %d", spans[j].Seq, spans[j-1].Seq)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-stop
	if got := st.Len(); got != workers*per*2 {
		t.Fatalf("Len = %d, want %d", got, workers*per*2)
	}
}

// TestSpanSeqPayloadConsistency: one writer wraps a small ring while a
// reader dumps, stamping each span's A with its own ticket. A dumped
// span whose payload disagrees with its Seq would be a torn read mixing
// two generations of one slot.
func TestSpanSeqPayloadConsistency(t *testing.T) {
	st := NewSpanTracer(32, 1)
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			ticket := st.head.Load() // the sole writer's next ticket
			st.End(st.Begin(SpanCommit, SpanNone, ticket, 0))
		}
	}()
	for i := 0; i < 20000; i++ {
		for _, sp := range st.Dump() {
			if sp.A != sp.Seq {
				close(done)
				wg.Wait()
				t.Fatalf("torn span: seq=%d payload=%d", sp.Seq, sp.A)
			}
		}
	}
	close(done)
	wg.Wait()
}

// TestNilSpanTracer: nil receivers are safe no-ops everywhere.
func TestNilSpanTracer(t *testing.T) {
	var st *SpanTracer
	if st.BeginSampled(SpanCommit, 1, 2) != SpanNone {
		t.Fatal("nil tracer must not sample")
	}
	if st.Begin(SpanCommit, SpanNone, 1, 2) != SpanNone {
		t.Fatal("nil tracer must not begin")
	}
	st.End(SpanNone)
	st.End(SpanID(5))
	if st.Dump() != nil || st.Len() != 0 {
		t.Fatal("nil tracer must record and dump nothing")
	}
}

// TestSpanKindString: every defined kind has a unique wire name.
func TestSpanKindString(t *testing.T) {
	kinds := []SpanKind{SpanCommit, SpanLockWait, SpanWALAppend,
		SpanGroupCommitFlush, SpanCOUCopy, SpanZigzagFlip, SpanHourglassStall,
		SpanTwoColorRestart, SpanCheckpoint, SpanCkptQuiesce, SpanCkptSegment,
		SpanLSNWait, SpanRecovery, SpanRecBackupLoad, SpanRecLogScan,
		SpanRecRedoApply, SpanTxnAbort, SpanLogCompact}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "unknown" || seen[s] {
			t.Fatalf("kind %d has bad or duplicate name %q", k, s)
		}
		seen[s] = true
	}
	if SpanKind(200).String() != "unknown" {
		t.Fatal("undefined kind must stringify as unknown")
	}
}

// TestSpanCapacityRounding: capacity rounds up to a power of two and zero
// selects the default.
func TestSpanCapacityRounding(t *testing.T) {
	if st := NewSpanTracer(100, 1); len(st.slots) != 128 {
		t.Fatalf("capacity 100 rounded to %d, want 128", len(st.slots))
	}
	if st := NewSpanTracer(0, 0); len(st.slots) != DefaultSpanCap {
		t.Fatalf("capacity 0 gave %d, want %d", len(st.slots), DefaultSpanCap)
	}
}
