package callgraph_test

import (
	"path/filepath"
	"strings"
	"testing"

	"mmdb/lint/callgraph"
)

// TestRepoCallGraph audits the real repository: it computes per-package
// call-graph facts for the engine and its dependencies exactly as
// ctxcheck's fact pipeline does, merges them, and pins the edges the
// concurrency analyzers depend on. A refactor that breaks extraction
// (silently dropping edges) would otherwise read as "everything is
// clean" to every fact consumer.
func TestRepoCallGraph(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	facts := loadFacts(t, map[string]string{"mmdb": root},
		"mmdb/internal/engine",
		"mmdb/internal/lockmgr",
		"mmdb/internal/wal",
		"mmdb/internal/storage",
	)
	g := callgraph.Merge(facts)

	const (
		exec     = "mmdb/internal/engine.Engine.Exec"
		execCtx  = "mmdb/internal/engine.Engine.ExecContext"
		begin    = "mmdb/internal/engine.Engine.Begin"
		commit   = "mmdb/internal/engine.Txn.Commit"
		ckptCtx  = "mmdb/internal/engine.Engine.CheckpointContext"
		sweep    = "mmdb/internal/engine.sweeper.sweep"
		sweepFF  = "mmdb/internal/engine.sweeper.fastFuzzySegment"
		fanOut   = "mmdb/internal/engine.fanOut"
		flushSeg = "mmdb/internal/engine.Engine.flushSegment"
		quiesce  = "mmdb/internal/engine.Engine.quiesce"
		ckptLoop = "mmdb/internal/engine.Engine.checkpointLoop"
		startCL  = "mmdb/internal/engine.Engine.StartCheckpointLoop"
		walApp   = "mmdb/internal/wal.Log.Append"
	)

	// Direct edges on the transaction path.
	for _, e := range [][2]string{{exec, execCtx}, {execCtx, begin}} {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("missing direct edge %s -> %s", e[0], e[1])
		}
	}

	// The commit path: ExecContext synchronously reaches Txn.Commit and,
	// through it, the WAL append.
	syncFromExec := g.Reachable(execCtx, false)
	for _, want := range []string{commit, walApp} {
		if !syncFromExec[want] {
			t.Errorf("ExecContext should synchronously reach %s", want)
		}
	}

	// The checkpoint path: CheckpointContext drives the batched sweep,
	// the fan-out join, and the per-segment flush without crossing a
	// goroutine boundary — the worker closure runs on fanOut's workers,
	// but statically it is attributed to the sweeper method that
	// declares it, which is what lets ctxcheck hold the sweep accountable.
	syncFromCkpt := g.Reachable(ckptCtx, false)
	for _, want := range []string{sweep, sweepFF, fanOut, flushSeg, quiesce, walApp} {
		if !syncFromCkpt[want] {
			t.Errorf("CheckpointContext should synchronously reach %s", want)
		}
	}

	// The background checkpoint loop is spawned, never called: it must
	// be invisible to synchronous reachability (this is what keeps
	// ctxcheck from charging CheckpointContext with the loop's blocking
	// waits) and visible once go edges are included.
	if syncFromCkpt[ckptLoop] {
		t.Errorf("checkpointLoop must not be synchronously reachable from CheckpointContext")
	}
	if g.Reachable(startCL, false)[ckptLoop] {
		t.Errorf("checkpointLoop must not be synchronously reachable from StartCheckpointLoop")
	}
	if !g.Reachable(startCL, true)[ckptLoop] {
		t.Errorf("StartCheckpointLoop should reach checkpointLoop across the go edge")
	}

	// Path reconstruction agrees with reachability and stays inside the
	// module.
	path := g.Path(ckptCtx, flushSeg, false)
	if len(path) < 2 {
		t.Fatalf("no path CheckpointContext -> flushSegment")
	}
	for _, n := range path {
		if !strings.HasPrefix(n, "mmdb") && !strings.HasPrefix(n, "iface:mmdb") {
			t.Errorf("path node %q escapes the module (path %v)", n, path)
		}
	}
}
