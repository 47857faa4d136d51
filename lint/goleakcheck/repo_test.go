package goleakcheck

import (
	"path/filepath"
	"strings"
	"testing"

	"mmdb/lint/analysis/analysistest"
)

// goleakAudited are the packages whose goroutine spawns the sweep
// covers and that carry goleak annotations.
var goleakAudited = []string{
	"mmdb/internal/engine",
	"mmdb/internal/wal",
	"mmdb/internal/testbed",
	"mmdb/cmd/ckptbench",
}

// TestRepoSpawnsJoined runs the analyzer over the real repository
// packages that spawn goroutines: every spawn must be either
// WaitGroup-joined on all paths or annotated. This is the sweep
// `go vet -vettool=bin/mmdblint` runs in CI, pinned as a unit test.
func TestRepoSpawnsJoined(t *testing.T) {
	ld := newRepoLoader(t)
	for _, pkg := range goleakAudited {
		diags, err := ld.Check(Analyzer, pkg)
		if err != nil {
			t.Fatalf("checking %s: %v", pkg, err)
		}
		for _, d := range diags {
			t.Errorf("%s: %v: %s", pkg, ld.Fset().Position(d.Pos), d.Message)
		}
	}
}

// TestRepoAnnotationsAreLoadBearing re-runs the sweep with annotation
// recognition disabled: every annotated spawn site must resurface as a
// diagnostic. Silence here would mean an annotation is decorating a
// spawn the analyzer never saw — i.e. the static guarantee is weaker
// than the annotations advertise. The sweep.go hit is the checkpoint
// pipeline property: remove fanOut's join annotation (or its join
// loop) and the 10-analyzer sweep fails.
func TestRepoAnnotationsAreLoadBearing(t *testing.T) {
	annotationsEnabled = false
	defer func() { annotationsEnabled = true }()

	ld := newRepoLoader(t)
	wantSites := map[string]bool{
		"internal/engine/engine.go": false, // go e.checkpointLoop(...)
		"internal/engine/sweep.go":  false, // fanOut's worker spawn
		"internal/wal/log.go":       false, // go l.flushLoop(...)
		"internal/testbed/crash.go": false, // in-flight checkpoint goroutine
		"cmd/ckptbench/main.go":     false, // metrics server
	}
	for _, pkg := range goleakAudited {
		diags, err := ld.Check(Analyzer, pkg)
		if err != nil {
			t.Fatalf("checking %s: %v", pkg, err)
		}
		for _, d := range diags {
			pos := ld.Fset().Position(d.Pos)
			for site := range wantSites {
				if strings.HasSuffix(filepath.ToSlash(pos.Filename), site) {
					wantSites[site] = true
				}
			}
		}
	}
	for site, hit := range wantSites {
		if !hit {
			t.Errorf("with annotations disabled, no diagnostic surfaced in %s: its goleak annotation is not load-bearing", site)
		}
	}
}

func newRepoLoader(t *testing.T) *analysistest.Loader {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	ld := analysistest.NewLoader("", map[string]string{"mmdb": root})
	for _, pkg := range goleakAudited {
		if err := ld.Load(pkg); err != nil {
			t.Fatalf("loading %s: %v", pkg, err)
		}
	}
	return ld
}
