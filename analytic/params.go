package analytic

import (
	"errors"
	"fmt"
)

// Params holds the model parameters of Section 2 (Tables 2a–2d) plus the
// handful of reconstruction parameters the paper's companion report
// [Sale87a] would have carried (documented in DESIGN.md §5). All sizes are
// in words (WordBytes each), times in seconds, costs in instructions.
type Params struct {
	// Table 2a — basic operation costs (instructions).
	CLock  float64 // (un)locking overhead
	CAlloc float64 // buffer (de)allocation overhead
	CIO    float64 // I/O initiation overhead
	CLSN   float64 // maintain/check a log sequence number (or timestamp)

	// Table 2b — disk model.
	TSeek  float64 // per-I/O delay time (seconds)
	TTrans float64 // transfer time (seconds/word)
	NDisks float64 // number of backup disks

	// Table 2c — database.
	SDB  float64 // database size (words)
	SRec float64 // record size (words)
	SSeg float64 // segment size (words)

	// Table 2d — transactions.
	Lambda float64 // arrival rate (transactions/second)
	NRU    float64 // updates per transaction (records)
	CTrans float64 // base transaction cost (instructions)

	// Reconstruction parameters (defaults in DefaultParams; see DESIGN.md).

	// CDirtyCheck is the per-segment cost of scanning dirty bits during a
	// partial checkpoint sweep.
	CDirtyCheck float64
	// CCkptFixed is the fixed per-checkpoint cost (begin/end markers,
	// backup metadata writes).
	CCkptFixed float64
	// AbortWorkFraction is the fraction of CTrans wasted by an attempt
	// aborted under the two-color rule (it dies at its first mixed-color
	// access, on average well before completion).
	AbortWorkFraction float64
	// CRestart is the bookkeeping cost of aborting and restarting a
	// transaction.
	CRestart float64
	// LogHeaderWords is the per-update log record overhead beyond the
	// after image; CommitRecWords the size of a commit or abort record.
	LogHeaderWords float64
	CommitRecWords float64
	// LogicalOperandWords is the operand size of a logical (operation)
	// redo record, used when Options.LogicalLogging replaces after images
	// with operations (Section 3.2's advantage of consistent backups).
	LogicalOperandWords float64
	// MinCheckpointSeconds floors the as-fast-as-possible checkpoint
	// interval: a sweep has fixed latency even when almost nothing is
	// dirty. It only binds at very low update rates.
	MinCheckpointSeconds float64
}

// WordBytes is the size of one model word. The paper's bandwidth
// arithmetic (Section 2.3) uses four bytes per word; engine byte sizes
// divide by it to become model sizes.
const WordBytes = 4

// DefaultParams returns the paper's default parameter values (Tables
// 2a–2d) with the reconstruction defaults of DESIGN.md §5.
func DefaultParams() Params {
	return Params{
		CLock:  20,
		CAlloc: 100,
		CIO:    1000,
		CLSN:   20,

		TSeek:  0.03,
		TTrans: 3e-6,
		NDisks: 20,

		SDB:  256 * 1 << 20, // 256 Mwords (2^28) = 1 GB at 4 bytes/word
		SRec: 32,
		SSeg: 8192,

		Lambda: 1000,
		NRU:    5,
		CTrans: 25000,

		CDirtyCheck:          1,
		CCkptFixed:           5000,
		AbortWorkFraction:    0.25,
		CRestart:             1000,
		LogHeaderWords:       4,
		CommitRecWords:       8,
		LogicalOperandWords:  2,
		MinCheckpointSeconds: 1,
	}
}

// Validate checks the parameters for consistency.
func (p Params) Validate() error {
	switch {
	case p.CLock < 0 || p.CAlloc < 0 || p.CIO < 0 || p.CLSN < 0:
		return errors.New("analytic: negative basic operation cost")
	case p.TSeek < 0 || p.TTrans <= 0:
		return errors.New("analytic: disk times must be positive")
	case p.NDisks < 1:
		return fmt.Errorf("analytic: NDisks = %v, want >= 1", p.NDisks)
	case p.SDB <= 0 || p.SRec <= 0 || p.SSeg <= 0:
		return errors.New("analytic: database sizes must be positive")
	case p.SSeg > p.SDB:
		return errors.New("analytic: segment larger than database")
	case p.Lambda <= 0 || p.NRU <= 0 || p.CTrans < 0:
		return errors.New("analytic: transaction parameters must be positive")
	case p.AbortWorkFraction < 0 || p.AbortWorkFraction > 1:
		return errors.New("analytic: AbortWorkFraction must be in [0,1]")
	case p.MinCheckpointSeconds <= 0:
		return errors.New("analytic: MinCheckpointSeconds must be positive")
	}
	return nil
}

// NumSegments returns S_db/S_seg.
func (p Params) NumSegments() float64 { return p.SDB / p.SSeg }

// UpdateRate returns the record update rate u = λ·N_ru (updates/second).
func (p Params) UpdateRate() float64 { return p.Lambda * p.NRU }

// SegmentIOTime returns the service time of one segment transfer on one
// disk: T_seek + T_trans·S_seg (seconds).
func (p Params) SegmentIOTime() float64 { return p.TSeek + p.TTrans*p.SSeg }

// FlushRate returns the aggregate segment flush rate of the disk bank
// (segments/second).
func (p Params) FlushRate() float64 { return p.NDisks / p.SegmentIOTime() }

// LogWordsPerCommit returns the log volume of one committed transaction.
func (p Params) LogWordsPerCommit() float64 {
	return p.NRU*(p.SRec+p.LogHeaderWords) + p.CommitRecWords
}

// RetryModel selects how two-color restarts are assumed to re-execute.
type RetryModel int

const (
	// IndependentRetries assumes a restarted transaction re-runs after a
	// delay, by which time the checkpoint boundary has moved: every
	// attempt samples the black fraction independently. This matches the
	// paper's single-valued p_restart and is the default.
	IndependentRetries RetryModel = iota
	// CorrelatedRetries assumes a restarted transaction re-runs
	// immediately at the same boundary position. Attempts then cluster at
	// boundary positions where conflicts are likely, raising the expected
	// rerun count to ∫ p(f)/(1−p(f)) df — noticeably above the
	// independent p̄/(1−p̄). A reproduction finding: under immediate
	// retries the two-color algorithms look even worse than the paper's
	// model suggests (see EXPERIMENTS.md).
	CorrelatedRetries
)

// String implements fmt.Stringer.
func (m RetryModel) String() string {
	switch m {
	case IndependentRetries:
		return "independent"
	case CorrelatedRetries:
		return "correlated"
	default:
		return fmt.Sprintf("analytic.RetryModel(%d)", int(m))
	}
}

// Options selects an algorithm and operating point for evaluation.
type Options struct {
	// Algorithm to evaluate.
	Algorithm Algorithm
	// Full selects full (every-segment) checkpoints; default partial.
	Full bool
	// StableTail gives the system a stable log tail: LSN synchronization
	// costs vanish, and FASTFUZZY becomes legal.
	StableTail bool
	// IntervalSeconds is the checkpoint duration (begin-to-begin). Zero
	// means as fast as possible (the minimum duration); smaller-than-
	// minimum values are clamped up.
	IntervalSeconds float64
	// Retry selects the two-color restart model (ignored for algorithms
	// that never abort transactions).
	Retry RetryModel
	// LogicalLogging replaces after-image redo records with operation
	// records of LogicalOperandWords each, shrinking the log and hence
	// the recovery log-read time. Requires a copy-on-update algorithm —
	// operation replay is only sound against a backup that is an exact
	// state at a known log position.
	LogicalLogging bool
	// HourglassWindowSegments is the HOURGLASS old-copy window W in
	// segments: the peak old-version buffer is capped at W·S_seg. Zero
	// resolves to DefaultHourglassWindowSegments; ignored by every other
	// algorithm.
	HourglassWindowSegments float64
}

// DefaultHourglassWindowSegments is the HOURGLASS old-copy window W, in
// segments, used when a window is left zero: four preallocated old-copy
// buffers. The engine resolves a zero Params.HourglassWindow to it too.
const DefaultHourglassWindowSegments = 4

// hourglassWindow resolves the zero value of HourglassWindowSegments.
func (o Options) hourglassWindow() float64 {
	if o.HourglassWindowSegments == 0 {
		return DefaultHourglassWindowSegments
	}
	return o.HourglassWindowSegments
}

// Validate checks the options against the parameters.
func (o Options) Validate() error {
	if !o.Algorithm.Valid() {
		return fmt.Errorf("analytic: invalid algorithm %d", int(o.Algorithm))
	}
	if o.Algorithm.RequiresStableTail() && !o.StableTail {
		return fmt.Errorf("analytic: %v requires a stable log tail", o.Algorithm)
	}
	if o.IntervalSeconds < 0 {
		return errors.New("analytic: negative checkpoint interval")
	}
	if o.LogicalLogging && !o.Algorithm.CopyOnUpdate() {
		return fmt.Errorf("analytic: logical logging requires a copy-on-update algorithm, not %v", o.Algorithm)
	}
	if o.HourglassWindowSegments < 0 {
		return fmt.Errorf("analytic: negative HourglassWindowSegments %v", o.HourglassWindowSegments)
	}
	return nil
}
