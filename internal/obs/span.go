package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// SpanKind identifies a span in the latency-attribution tree. The A/B
// payload words of a Span are per-kind:
//
//	SpanCommit           A=txnID
//	SpanLockWait         A=txnID B=recordID
//	SpanWALAppend        A=txnID
//	SpanGroupCommitFlush A=txnID B=commitEndLSN
//	SpanCOUCopy          A=txnID B=segmentIndex
//	SpanZigzagFlip       A=txnID B=segmentIndex
//	SpanHourglassStall   A=txnID B=segmentIndex
//	SpanTwoColorRestart  A=txnID B=ckptID
//	SpanCheckpoint       A=ckptID B=algorithm
//	SpanCkptQuiesce      A=ckptID
//	SpanCkptSegment      A=ckptID B=segmentIndex
//	SpanLSNWait          A=ckptID B=lsn
//	SpanRecovery         A=0
//	SpanRecBackupLoad    A=segments loaded
//	SpanRecLogScan       A=records scanned
//	SpanRecRedoApply     A=records applied
//	SpanTxnAbort         A=txnID
//	SpanLogCompact       A=ckptID B=keepLSN
type SpanKind uint8

const (
	spanInvalid SpanKind = iota
	SpanCommit
	SpanLockWait
	SpanWALAppend
	SpanGroupCommitFlush
	SpanCOUCopy
	SpanZigzagFlip
	SpanHourglassStall
	SpanTwoColorRestart
	SpanCheckpoint
	SpanCkptQuiesce
	SpanCkptSegment
	SpanLSNWait
	SpanRecovery
	SpanRecBackupLoad
	SpanRecLogScan
	SpanRecRedoApply
	SpanTxnAbort
	SpanLogCompact
)

// String returns the span kind's wire name.
func (k SpanKind) String() string {
	switch k {
	case SpanCommit:
		return "commit"
	case SpanLockWait:
		return "lock_wait"
	case SpanWALAppend:
		return "wal_append"
	case SpanGroupCommitFlush:
		return "group_commit_flush"
	case SpanCOUCopy:
		return "cou_copy"
	case SpanZigzagFlip:
		return "zigzag_flip"
	case SpanHourglassStall:
		return "hourglass_stall"
	case SpanTwoColorRestart:
		return "two_color_restart"
	case SpanCheckpoint:
		return "checkpoint"
	case SpanCkptQuiesce:
		return "ckpt_quiesce"
	case SpanCkptSegment:
		return "ckpt_segment"
	case SpanLSNWait:
		return "lsn_wait"
	case SpanRecovery:
		return "recovery"
	case SpanRecBackupLoad:
		return "rec_backup_load"
	case SpanRecLogScan:
		return "rec_log_scan"
	case SpanRecRedoApply:
		return "rec_redo_apply"
	case SpanTxnAbort:
		return "txn_abort"
	case SpanLogCompact:
		return "log_compact"
	default:
		return "unknown"
	}
}

// SpanID names a live or retained span: the span's ring ticket plus one,
// so the zero value (SpanNone) is never a valid span. Begin returns it,
// End closes it, and child spans carry it as their Parent.
type SpanID uint64

// SpanNone is the absent span: Begin with parent SpanNone starts a root,
// End(SpanNone) is a no-op, and a Span with Parent == SpanNone is a tree
// root. BeginSampled returns SpanNone for the commits it elects not to
// trace, which makes every child Begin/End under that commit free.
const SpanNone SpanID = 0

// Span is one dumped span record.
type Span struct {
	// Seq is the global begin order (dense, starts at 0).
	Seq uint64
	// Parent is the SpanID of the enclosing span, or SpanNone for roots.
	Parent SpanID
	Kind   SpanKind
	// Begin is the wall-clock begin time (UnixNano); Dur the span
	// duration in nanoseconds.
	Begin int64
	Dur   int64
	// A, B are per-kind payload words; see the SpanKind docs.
	A, B uint64
}

// ID returns the span's own SpanID (the value Begin returned for it).
func (s Span) ID() SpanID { return SpanID(s.Seq + 1) }

// spanSlot is one ring-buffer entry. Begin claims the slot by storing
// ticket+1 into claim and writes the payload; End stores the duration
// and then ticket+1 into done. A reader accepts the slot only when
// claim == done != 0, which means one writer's payload is fully visible,
// so in-flight spans and slots being overwritten are skipped, never
// torn. Every field is atomic — no locks anywhere on the record path,
// and the protocol is race-detector clean.
type spanSlot struct {
	claim  atomic.Uint64
	parent atomic.Uint64
	kind   atomic.Uint64
	begin  atomic.Int64
	dur    atomic.Int64
	a      atomic.Uint64
	b      atomic.Uint64
	done   atomic.Uint64
}

// SpanTracer is a bounded lock-free multi-producer ring buffer of spans —
// the engine's one flight recorder: commit trees, checkpoint trees
// (segment flushes, log compaction), and recovery trees. Point facts
// such as a transaction abort are zero-length spans (Begin then End).
// Begin/End are wait-free (one ticket fetch-add, one clock read, and a
// handful of atomic stores each); when the ring wraps, the oldest spans
// are overwritten and a late End for an overwritten span is dropped. A
// nil *SpanTracer drops all spans, so span calls are free to leave in
// place unconditionally.
type SpanTracer struct {
	mask        uint64
	sampleEvery uint64
	head        atomic.Uint64
	tick        atomic.Uint64
	slots       []spanSlot
}

// DefaultSpanCap is the default span-ring capacity.
const DefaultSpanCap = 4096

// NewSpanTracer returns a span tracer retaining the most recent capacity
// spans (rounded up to a power of two; capacity ≤ 0 selects
// DefaultSpanCap). sampleEvery controls BeginSampled: one in every
// sampleEvery root spans is traced (≤ 1 traces every root).
func NewSpanTracer(capacity, sampleEvery int) *SpanTracer {
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &SpanTracer{
		mask:        uint64(n - 1),
		sampleEvery: uint64(sampleEvery),
		slots:       make([]spanSlot, n),
	}
}

// BeginSampled starts a root span subject to the tracer's sampling rate
// and returns its ID, or SpanNone when this root is not sampled. Callers
// gate every child Begin on the root being != SpanNone, so an unsampled
// commit costs exactly one fetch-add and no clock reads.
//
// perf:hotpath(the commit root span is opened inside transaction begin)
func (t *SpanTracer) BeginSampled(kind SpanKind, a, b uint64) SpanID {
	if t == nil {
		return SpanNone
	}
	if t.sampleEvery > 1 && t.tick.Add(1)%t.sampleEvery != 0 {
		return SpanNone
	}
	return t.Begin(kind, SpanNone, a, b)
}

// Begin starts a span and returns its ID. Unsampled — used for child
// spans (parent from an already-sampled root) and for rare roots such as
// checkpoints and recovery that must never be dropped. Safe for any
// number of concurrent writers.
//
// perf:hotpath(child spans open inside commit and checkpoint critical sections)
func (t *SpanTracer) Begin(kind SpanKind, parent SpanID, a, b uint64) SpanID {
	if t == nil {
		return SpanNone
	}
	ticket := t.head.Add(1) - 1
	s := &t.slots[ticket&t.mask]
	s.claim.Store(ticket + 1)
	s.parent.Store(uint64(parent))
	s.kind.Store(uint64(kind))
	s.begin.Store(time.Now().UnixNano())
	s.a.Store(a)
	s.b.Store(b)
	// done is left at its previous generation: the span is in-flight and
	// Dump skips it until End publishes the matching stamp.
	return SpanID(ticket + 1)
}

// End closes a span begun earlier. If the ring has wrapped and the slot
// was reclaimed by a newer span, the End is dropped — the flight recorder
// keeps only recent history. End(SpanNone) is a no-op.
//
// perf:hotpath(span ends fire inside commit and checkpoint critical sections)
func (t *SpanTracer) End(id SpanID) {
	if t == nil || id == SpanNone {
		return
	}
	ticket := uint64(id) - 1
	s := &t.slots[ticket&t.mask]
	if s.claim.Load() != uint64(id) {
		return
	}
	s.dur.Store(time.Now().UnixNano() - s.begin.Load())
	s.done.Store(uint64(id))
}

// Len returns the number of spans begun so far (including any already
// overwritten).
func (t *SpanTracer) Len() uint64 {
	if t == nil {
		return 0
	}
	return t.head.Load()
}

// Dump returns the currently retained completed spans in begin order.
// In-flight spans (no End yet) and slots being rewritten concurrently are
// skipped (claim ≠ done), so a dump taken during heavy writing is
// best-effort but never torn.
//
// alloc:allowed(diagnostic snapshot; called from exposition and the watchdog trip, never on the steady-state commit path)
func (t *SpanTracer) Dump() []Span {
	if t == nil {
		return nil
	}
	spans := make([]Span, 0, len(t.slots))
	for i := range t.slots {
		s := &t.slots[i]
		done := s.done.Load()
		if done == 0 || s.claim.Load() != done {
			continue
		}
		sp := Span{
			Seq:    done - 1,
			Parent: SpanID(s.parent.Load()),
			Kind:   SpanKind(s.kind.Load()),
			Begin:  s.begin.Load(),
			Dur:    s.dur.Load(),
			A:      s.a.Load(),
			B:      s.b.Load(),
		}
		// Re-check both generation stamps after reading the payload: if a
		// writer touched the slot mid-read, at least one differs.
		if s.claim.Load() != done || s.done.Load() != done {
			continue
		}
		spans = append(spans, sp)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Seq < spans[j].Seq })
	return spans
}
