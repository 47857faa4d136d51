package alloccheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmdb/lint/analysis/analysistest"
)

// allocAudited are the packages on the engine's hot paths, dependency
// order: a package's facts must exist before its dependents are
// checked.
var allocAudited = []string{
	"mmdb/internal/obs",
	"mmdb/internal/faultfs",
	"mmdb/internal/storage",
	"mmdb/internal/wal",
	"mmdb/internal/lockmgr",
	"mmdb/index",
	"mmdb/internal/engine",
	"mmdb",
	"mmdb/kvstore",
}

// minAuditedAnnotations is a tripwire: the load-bearing scan below must
// discover at least this many alloc:allowed annotations. If a refactor
// moves exempted code out of the audited packages, this fails instead
// of the scan silently auditing nothing.
const minAuditedAnnotations = 20

// TestRepoHotPathsAllocationFree runs alloccheck over the real engine
// stack: every function reachable from a perf:hotpath root is
// allocation-free or carries a reasoned exemption, and no exemption is
// missing its reason.
func TestRepoHotPathsAllocationFree(t *testing.T) {
	ld := newRepoLoader(t)
	for _, pkg := range allocAudited {
		diags, err := ld.Check(Analyzer, pkg)
		if err != nil {
			t.Fatalf("checking %s: %v", pkg, err)
		}
		for _, d := range diags {
			t.Errorf("%s: %v: %s", pkg, ld.Fset().Position(d.Pos), d.Message)
		}
	}
}

// TestRepoRootsAnnotated pins the perf:hotpath root set: the paper's
// hot paths must stay annotated, or reachability silently audits
// nothing.
func TestRepoRootsAnnotated(t *testing.T) {
	wantRoots := []string{
		"mmdb/internal/wal.Log.Append",
		"mmdb/internal/engine.Txn.Write",
		"mmdb/internal/engine.Txn.Commit",
		"mmdb/internal/engine.Engine.ExecWrite",
		"mmdb/internal/lockmgr.Manager.Lock",
		"mmdb/internal/lockmgr.Manager.TryLock",
		"mmdb/internal/lockmgr.Manager.Unlock",
		"mmdb/internal/lockmgr.Manager.ReleaseAll",
		"mmdb/internal/obs.Histogram.Observe",
		"mmdb/internal/obs.Histogram.ObserveSince",
		"mmdb/internal/obs.SpanTracer.BeginSampled",
		"mmdb/internal/obs.SpanTracer.Begin",
		"mmdb/internal/obs.SpanTracer.End",
		"mmdb.DB.ExecWrite",
		"mmdb.DB.ReadRecordInto",
		"mmdb/kvstore.Local.Get",
		"mmdb/kvstore.Local.Put",
	}
	roots := make(map[string]bool)
	for pkg, fns := range scanAnnotations(t) {
		for fn, a := range fns {
			if a.isRoot {
				roots[pkg+"."+fn] = true
			}
		}
	}
	for _, r := range wantRoots {
		if !roots[r] {
			t.Errorf("perf:hotpath root %s is missing", r)
		}
	}
}

// TestRepoExemptionsAreLoadBearing re-runs the sweep with exemption
// recognition disabled and requires every alloc:allowed annotation in
// the audited packages to make at least one site resurface — at the
// annotated line (site exemptions) or inside the annotated function
// (doc exemptions). An annotation that suppresses nothing is dead
// documentation and must be deleted.
func TestRepoExemptionsAreLoadBearing(t *testing.T) {
	exemptionsEnabled = false
	defer func() { exemptionsEnabled = true }()

	ld := newRepoLoader(t)
	var blob strings.Builder
	for _, pkg := range allocAudited {
		diags, err := ld.Check(Analyzer, pkg)
		if err != nil {
			t.Fatalf("checking %s: %v", pkg, err)
		}
		for _, d := range diags {
			fmt.Fprintf(&blob, "%v: %s\n", ld.Fset().Position(d.Pos), d.Message)
		}
	}
	all := blob.String()
	// Both diagnostic positions and cross-package messages cite sites as
	// absolute "file:line:col", so a substring probe finds either form.
	lineHit := func(file string, line int) bool {
		return strings.Contains(all, fmt.Sprintf("%s:%d:", file, line))
	}

	audited := 0
	for _, fns := range scanAnnotations(t) {
		for name, a := range fns {
			if a.allowedLine > 0 { // function-level exemption
				audited++
				hit := false
				for l := a.bodyStart; l <= a.bodyEnd; l++ {
					if lineHit(a.file, l) {
						hit = true
						break
					}
				}
				if !hit {
					t.Errorf("function-level alloc:allowed on %s (%s:%d) is not load-bearing: no site resurfaced with exemptions disabled", name, a.file, a.allowedLine)
				}
			}
			for _, l := range a.siteLines {
				audited++
				if !lineHit(a.file, l) && !lineHit(a.file, l+1) {
					t.Errorf("site alloc:allowed at %s:%d is not load-bearing: no site resurfaced with exemptions disabled", a.file, l)
				}
			}
		}
	}
	if audited < minAuditedAnnotations {
		t.Fatalf("annotation scan found only %d alloc:allowed annotations (want ≥ %d): the audit is not covering the repository", audited, minAuditedAnnotations)
	}
}

// annotated describes one function's annotations in the source scan.
type annotated struct {
	file        string
	isRoot      bool
	allowedLine int // doc-comment alloc:allowed line; 0 = none
	bodyStart   int
	bodyEnd     int
	siteLines   []int // inline alloc:allowed comment lines within the function
}

// scanAnnotations parses the audited packages' non-test sources and
// returns, per package, each annotated function's perf:hotpath /
// alloc:allowed state, plus inline site-exemption comment lines
// (attributed to the enclosing function; file-scope comments are
// attributed to a pseudo-entry per file).
func scanAnnotations(t *testing.T) map[string]map[string]annotated {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]map[string]annotated)
	for _, pkg := range allocAudited {
		dir := filepath.Join(root, strings.TrimPrefix(pkg, "mmdb"))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading %s: %v", dir, err)
		}
		fns := make(map[string]annotated)
		fset := token.NewFileSet()
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				t.Fatalf("parsing %s: %v", path, err)
			}
			docs := make(map[*ast.CommentGroup]bool)
			type span struct {
				name       string
				start, end int
			}
			var spans []span
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn.Doc != nil {
					docs[fn.Doc] = true
				}
				name := fn.Name.Name
				if fn.Recv != nil && len(fn.Recv.List) > 0 {
					if id := recvIdent(fn.Recv.List[0].Type); id != "" {
						name = id + "." + name
					}
				}
				a := annotated{
					file:      path,
					bodyStart: fset.Position(fn.Pos()).Line,
					bodyEnd:   fset.Position(fn.End()).Line,
				}
				if fn.Doc != nil {
					if _, found := hotpathDirective(fn.Doc.Text()); found {
						a.isRoot = true
					}
					if _, found, _ := allowedDirective(fn.Doc.Text()); found {
						a.allowedLine = fset.Position(fn.Doc.Pos()).Line
					}
				}
				fns[name] = a
				spans = append(spans, span{name, a.bodyStart, a.bodyEnd})
			}
			for _, cg := range f.Comments {
				if docs[cg] {
					continue
				}
				for _, c := range cg.List {
					if _, found, _ := allowedDirective(c.Text); !found {
						continue
					}
					line := fset.Position(c.Pos()).Line
					owner := ""
					for _, sp := range spans {
						if line >= sp.start && line <= sp.end {
							owner = sp.name
							break
						}
					}
					if owner == "" {
						owner = "file:" + e.Name()
					}
					a := fns[owner]
					if a.file == "" {
						a.file = path
					}
					a.siteLines = append(a.siteLines, line)
					fns[owner] = a
				}
			}
		}
		out[pkg] = fns
	}
	return out
}

// recvIdent extracts the receiver type name from a receiver type expr.
func recvIdent(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return recvIdent(e.X)
	case *ast.IndexExpr:
		return recvIdent(e.X)
	}
	return ""
}

func newRepoLoader(t *testing.T) *analysistest.Loader {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skipf("repository root not found: %v", err)
	}
	ld := analysistest.NewLoader("", map[string]string{"mmdb": root})
	for _, pkg := range allocAudited {
		if err := ld.Load(pkg); err != nil {
			t.Fatalf("loading %s: %v", pkg, err)
		}
	}
	return ld
}
