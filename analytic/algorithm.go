package analytic

import (
	"fmt"
	"strings"
)

// Algorithm identifies one of the checkpoint algorithms of Section 3 of
// the paper, or one of the two post-paper extensions (Zigzag,
// Hourglass). It is the one enumeration of the repository: the engine
// and the public mmdb API alias it, and the simulator uses it directly.
// The analytic model evaluates each algorithm from a small set of
// structural properties (does it copy segments, lock them, need LSN
// checks, abort transactions, quiesce the system).
type Algorithm int

// The five checkpoint algorithms compared by the paper, plus FASTFUZZY
// (introduced in Section 4 for systems with a stable log tail), plus the
// two consistent-snapshot algorithms of Cao et al., "A Comparative Study
// of Consistent Snapshot Algorithms for Main-Memory Database Systems":
// Zigzag and Hourglass, adapted here from page to segment granularity.
//
// The values are part of the on-disk format: the engine logs each
// begin-checkpoint record's algorithm as uint8(a), so FuzzyCopy is 1
// through Hourglass 8, and a new algorithm must take the next value.
const (
	// FuzzyCopy is FUZZYCOPY: fuzzy checkpointing through a main-memory
	// I/O buffer. Each segment is copied into the buffer and flushed once
	// the log is durable past the segment's last update, so the
	// write-ahead rule holds through LSN synchronization with the log and
	// without any transaction synchronization.
	FuzzyCopy Algorithm = iota + 1
	// FastFuzzy is FASTFUZZY: segments are flushed directly from the
	// database, with no buffer copy and no LSN checks. It is only safe
	// with a stable log tail (Section 4).
	FastFuzzy
	// TwoColorFlush is 2CFLUSH: Pu's black/white algorithm, flushing
	// each segment to the backup disks while its lock is held.
	TwoColorFlush
	// TwoColorCopy is 2CCOPY: Pu's algorithm, copying the segment to a
	// buffer under the lock and flushing it after the lock is released.
	TwoColorCopy
	// COUFlush is COUFLUSH: copy-on-update, with untouched dirty
	// segments flushed while latched.
	COUFlush
	// COUCopy is COUCOPY: copy-on-update, with untouched dirty segments
	// copied to a buffer and flushed after unlatching.
	COUCopy
	// Zigzag is ZIGZAG (Cao et al.): two full database images
	// (Data/Shadow) and two bits per segment. At checkpoint begin (under
	// quiescence) every segment is armed; the first writer to touch an
	// armed segment flips its live image onto the shadow slab,
	// preserving the begin-state image, which the checkpointer then
	// flushes without latching. The backup is transaction-consistent at
	// begin, like COU, but the write-path cost is a segment copy instead
	// of a buffer allocation.
	Zigzag
	// Hourglass is HOURGLASS (Cao et al.): windowed copy-on-update. Old
	// versions are preserved in a fixed pool of W preallocated segment
	// buffers (the hourglass "waist"). A writer needing a buffer when the
	// pool is empty waits until the checkpointer returns one, bounding
	// snapshot memory at W segments where plain COU is unbounded.
	Hourglass
)

// Algorithms lists the algorithms in the paper's presentation order,
// followed by the two post-paper extensions.
var Algorithms = []Algorithm{FuzzyCopy, FastFuzzy, TwoColorFlush, TwoColorCopy, COUFlush, COUCopy, Zigzag, Hourglass}

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case FuzzyCopy:
		return "FUZZYCOPY"
	case FastFuzzy:
		return "FASTFUZZY"
	case TwoColorFlush:
		return "2CFLUSH"
	case TwoColorCopy:
		return "2CCOPY"
	case COUFlush:
		return "COUFLUSH"
	case COUCopy:
		return "COUCOPY"
	case Zigzag:
		return "ZIGZAG"
	case Hourglass:
		return "HOURGLASS"
	default:
		return fmt.Sprintf("analytic.Algorithm(%d)", int(a))
	}
}

// Parse resolves a case-insensitive paper name to an Algorithm. The
// error for an unknown name lists every valid one.
func Parse(name string) (Algorithm, error) {
	for _, a := range Algorithms {
		if strings.EqualFold(name, a.String()) {
			return a, nil
		}
	}
	valid := make([]string, len(Algorithms))
	for i, a := range Algorithms {
		valid[i] = a.String()
	}
	return 0, fmt.Errorf("analytic: unknown algorithm %q (valid: %s)", name, strings.Join(valid, ", "))
}

// Valid reports whether a names a known algorithm.
func (a Algorithm) Valid() bool { return a >= FuzzyCopy && a <= Hourglass }

// TwoColor reports whether the algorithm is a black/white locking
// algorithm, which aborts transactions that touch both colors.
func (a Algorithm) TwoColor() bool { return a == TwoColorFlush || a == TwoColorCopy }

// CopyOnUpdate reports whether the algorithm is COUFLUSH or COUCOPY,
// whose transactions preserve pre-checkpoint segment versions in
// per-segment heap copies while a checkpoint runs. Hourglass is
// deliberately excluded: it preserves old versions too, but through the
// bounded buffer pool rather than per-segment allocation, so the COU
// paths (dropping old copies, the unbounded-buffer accounting) do not
// apply to it unchanged. PreservesOldVersions covers both.
func (a Algorithm) CopyOnUpdate() bool { return a == COUFlush || a == COUCopy }

// Fuzzy reports whether the backup produced is fuzzy (not
// transaction-consistent).
func (a Algorithm) Fuzzy() bool { return a == FuzzyCopy || a == FastFuzzy }

// CopiesSegments reports whether the checkpointer moves each flushed
// segment through a main-memory buffer (the S_seg data-movement cost).
func (a Algorithm) CopiesSegments() bool {
	return a == FuzzyCopy || a == TwoColorCopy || a == COUCopy
}

// UsesLSN reports whether the algorithm synchronizes with the log through
// log sequence numbers before flushing a segment, to preserve the
// write-ahead rule (dropped when the log tail is stable). COU algorithms
// never need LSNs: every update they flush predates the checkpoint's
// begin marker, whose log tail flush made it durable. FASTFUZZY relies on
// a stable tail instead. Zigzag and Hourglass flush only begin-state
// images, so they inherit the COU argument.
func (a Algorithm) UsesLSN() bool {
	return a == FuzzyCopy || a == TwoColorFlush || a == TwoColorCopy
}

// LocksSegments reports whether the checkpointer locks each segment as it
// processes it (two-color, COU, and the quiesce-family extensions; fuzzy
// checkpoints need "little or no synchronization").
func (a Algorithm) LocksSegments() bool {
	return a.TwoColor() || a.CopyOnUpdate() || a == Zigzag || a == Hourglass
}

// RequiresStableTail reports whether the algorithm is only correct with a
// stable log tail.
func (a Algorithm) RequiresStableTail() bool { return a == FastFuzzy }

// RequiresQuiesce reports whether checkpoint begin quiesces transaction
// processing. COU, Zigzag and Hourglass share the begin protocol: stop
// writers, stamp τ, flush the begin record, then publish the run so
// writers resume against it. They also share its model consequence:
// per-update timestamp maintenance while idle plus the begin-quiesce
// latency, priced like COU's.
func (a Algorithm) RequiresQuiesce() bool {
	return a.CopyOnUpdate() || a == Zigzag || a == Hourglass
}

// PreservesOldVersions reports whether updaters preserve pre-checkpoint
// segment versions for the checkpointer (COU's unbounded heap copies or
// hourglass's bounded window).
func (a Algorithm) PreservesOldVersions() bool {
	return a.CopyOnUpdate() || a == Hourglass
}
