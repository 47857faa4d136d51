package lockcheck_test

import (
	"testing"

	"mmdb/lint/analysis/analysistest"
	"mmdb/lint/lockcheck"
)

// Test exercises the annotation forms (named guard, embedded RWMutex,
// lockcheck:held, nolint), the branch-merge semantics that keep
// unlock-and-return idioms quiet, and cross-package fact propagation
// (package b violates an annotation declared in package a). The
// tracering package mirrors internal/obs.SpanTracer's atomic-only ring
// buffer: atomics carry no guard annotations, so the ring itself must
// produce no diagnostics (its mutexRing contrast proves the package is
// analyzed, not skipped).
func Test(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lockcheck.Analyzer, "a", "b", "tracering")
}
