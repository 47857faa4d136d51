package engine

import "mmdb/analytic"

// Algorithm selects a checkpoint algorithm. It is the analytic package's
// enumeration, which documents each algorithm and its structural
// properties; the engine dispatches on those properties.
type Algorithm = analytic.Algorithm

// The checkpoint algorithms the engine implements (see analytic.Algorithm).
const (
	FuzzyCopy     = analytic.FuzzyCopy
	FastFuzzy     = analytic.FastFuzzy
	TwoColorFlush = analytic.TwoColorFlush
	TwoColorCopy  = analytic.TwoColorCopy
	COUFlush      = analytic.COUFlush
	COUCopy       = analytic.COUCopy
	Zigzag        = analytic.Zigzag
	Hourglass     = analytic.Hourglass
)
