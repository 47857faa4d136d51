package ctxcheck

import (
	"path/filepath"
	"strings"
	"testing"

	"mmdb/lint/analysis/analysistest"
)

// ctxAudited are the packages on the engine's context-propagation
// paths; engine must come after its dependencies so their facts are
// available when it is checked.
var ctxAudited = []string{
	"mmdb/internal/obs",
	"mmdb/internal/storage",
	"mmdb/internal/wal",
	"mmdb/internal/lockmgr",
	"mmdb/internal/engine",
}

// TestRepoContextDiscipline runs ctxcheck over the real engine stack:
// no un-annotated context.Background in internal packages, and every
// blocking loop reachable from ExecContext / CheckpointContext /
// RecoverContext either consults the ctx or carries a reasoned
// exemption.
func TestRepoContextDiscipline(t *testing.T) {
	ld := newRepoLoader(t)
	for _, pkg := range ctxAudited {
		diags, err := ld.Check(Analyzer, pkg)
		if err != nil {
			t.Fatalf("checking %s: %v", pkg, err)
		}
		for _, d := range diags {
			t.Errorf("%s: %v: %s", pkg, ld.Fset().Position(d.Pos), d.Message)
		}
	}
}

// TestRepoExemptionsAreLoadBearing re-runs the sweep with annotation
// recognition disabled: the annotated roots and exempted loops must
// all resurface. This is the violation-reintroduction demonstration —
// deleting any of these annotations (or re-introducing the violation
// they exempt) makes the 10-analyzer sweep fail at exactly these
// sites. The sweep.go hit covers the checkpoint pipeline property:
// fanOut's mandatory join loop is reachable from CheckpointContext.
func TestRepoExemptionsAreLoadBearing(t *testing.T) {
	annotationsEnabled = false
	defer func() { annotationsEnabled = true }()

	ld := newRepoLoader(t)
	wantFrags := map[string]bool{
		"engine.go:context.Background":   false, // Exec's root annotation
		"checkpoint.go:context.Backgrou": false, // Checkpoint's root annotation
		"recovery.go:context.Background": false, // Recover's root annotation
		"engine.go:this loop may block":  false, // Begin / quiesce gate loops
		"sweep.go:this loop may block":   false, // fanOut's join loop
		"checkpoint.go:grantLocked":      false, // grantLocked's grant loop, via the checkpoint path
	}
	for _, pkg := range ctxAudited {
		diags, err := ld.Check(Analyzer, pkg)
		if err != nil {
			t.Fatalf("checking %s: %v", pkg, err)
		}
		for _, d := range diags {
			pos := ld.Fset().Position(d.Pos)
			for frag := range wantFrags {
				file, msg, _ := strings.Cut(frag, ":")
				if strings.HasSuffix(filepath.Base(pos.Filename), file) && strings.Contains(d.Message, msg) {
					wantFrags[frag] = true
				}
			}
		}
	}
	for frag, hit := range wantFrags {
		if !hit {
			t.Errorf("with annotations disabled, expected diagnostic %q never surfaced: that annotation is not load-bearing", frag)
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
	for _, pkg := range ctxAudited {
		if err := ld.Load(pkg); err != nil {
			t.Fatalf("loading %s: %v", pkg, err)
		}
	}
	return ld
}
