// Command mmdblint is the repository's invariant-checking vet tool. It
// bundles the custom analyzers from lint/... behind go vet's vet-tool
// protocol:
//
//	go build -o bin/mmdblint ./cmd/mmdblint
//	go vet -vettool=bin/mmdblint ./...
//
// or via the Makefile: make lint. Individual analyzers can be selected
// with their flags, e.g. go vet -vettool=bin/mmdblint -lockcheck ./...
// Machine-readable output is available with -json (see
// lint/analysis/unitchecker).
//
// Analyzers:
//
//	lockcheck    guarded_by-annotated fields accessed only under their mutex
//	detcheck     determinism of sim and analytic
//	errcheckwal  no discarded errors from wal/storage/backup/engine calls
//	lsncheck     LSN ordering/arithmetic through typed helpers only
//	walorder     disk writes covered by a durable WAL position on every path
//	lockorder    cross-package lock-acquisition graph: cycles, level violations
//	unlockcheck  every acquired mutex released on all paths out of a function
//	goleakcheck  every go statement matched by a join on all paths, or annotated
//	atomiccheck  atomic_only / sync-atomic-typed fields accessed only atomically
//	ctxcheck     context flows: no Background in internal code, blocking loops
//	             reachable from ctx-taking entry points consult the ctx
//	alloccheck   functions reachable from perf:hotpath roots are
//	             allocation-free per lint/escape, or reasoned alloc:allowed
//
// walorder, lockorder, unlockcheck, and goleakcheck are flow-sensitive:
// they run a worklist dataflow over the lint/cfg control-flow graphs.
// The cross-package analyzers (lockcheck, lockorder, atomiccheck,
// ctxcheck, alloccheck) exchange facts through .vetx files, so an
// annotation in internal/wal constrains code in internal/engine;
// ctxcheck's and alloccheck's facts carry a lint/callgraph slice per
// package, giving them an interprocedural view of which blocking loops
// a context can reach and which allocation sites a hot path can reach;
// alloccheck's facts additionally carry lint/escape parameter-leak
// vectors, so a record handed to a non-leaking callee in another
// package is proved stack-resident.
package main

import (
	"mmdb/lint/alloccheck"
	"mmdb/lint/analysis/unitchecker"
	"mmdb/lint/atomiccheck"
	"mmdb/lint/ctxcheck"
	"mmdb/lint/detcheck"
	"mmdb/lint/errcheckwal"
	"mmdb/lint/goleakcheck"
	"mmdb/lint/lockcheck"
	"mmdb/lint/lockorder"
	"mmdb/lint/lsncheck"
	"mmdb/lint/unlockcheck"
	"mmdb/lint/walorder"
)

func main() {
	unitchecker.Main(
		lockcheck.Analyzer,
		detcheck.Analyzer,
		errcheckwal.Analyzer,
		lsncheck.Analyzer,
		walorder.Analyzer,
		lockorder.Analyzer,
		unlockcheck.Analyzer,
		goleakcheck.Analyzer,
		atomiccheck.Analyzer,
		ctxcheck.Analyzer,
		alloccheck.Analyzer,
	)
}
