package unlockcheck_test

import (
	"testing"

	"mmdb/lint/analysis/analysistest"
	"mmdb/lint/unlockcheck"
)

// TestUnlockcheck covers, per package:
//
//   - unlockpkg: early-return/panic/closure leaks, the all-paths-release
//     false-positive regression, dominating vs. conditional defers,
//     TryLock, wait-loop relocking, and the held exemption;
//   - unlockuse: the cross-package facts case — Acquire/Release wrappers
//     declared in unlockdep balance call sites here;
//   - tracering: internal/obs.SpanTracer's atomic-only ring buffer shape,
//     which has no acquisitions to balance and must stay silent (its
//     mutexRing contrast proves the package is really analyzed).
func TestUnlockcheck(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), unlockcheck.Analyzer, "unlockpkg", "unlockuse", "tracering")
}
