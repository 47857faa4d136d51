// Package detcheck enforces determinism in the simulation and analytic
// packages (sim, analytic): their output backs the
// paper's Figures 4a–4e and must reproduce bit-for-bit, so they may not
// consult wall-clock time, the global math/rand source, or emit output
// in map-iteration order.
//
// In a deterministic package, detcheck reports:
//
//   - calls to time.Now, time.Since, or time.Until — inject the
//     simulation clock instead;
//   - calls to package-level math/rand (and math/rand/v2) functions,
//     which draw from the shared global source — use a seeded
//     *rand.Rand (rand.New(rand.NewSource(seed))) instead; and
//   - range statements over maps whose body appends to a slice or calls
//     a fmt function, i.e. produces ordered output from unordered
//     iteration — collect and sort the keys first.
//
// Order-insensitive map loops (counting, summing into integers, building
// another map) are not flagged. Test files are skipped so benchmarks may
// time themselves. A justified exception (e.g. a commutative float
// accumulation) can be silenced with //nolint:detcheck.
package detcheck

import (
	"go/ast"
	"go/types"
	"path"

	"mmdb/lint/analysis"
)

// Analyzer is the detcheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "detcheck",
	Doc:  "forbid wall-clock time, global math/rand, and map-order-dependent output in deterministic packages",
	Run:  run,
}

// DeterministicPkgs names the packages (by import-path base) whose
// output must be reproducible.
var DeterministicPkgs = map[string]bool{
	"sim":      true,
	"analytic": true,
}

// bannedTime are the time functions that read the wall clock.
var bannedTime = map[string]bool{"Now": true, "Since": true, "Until": true}

// allowedRand are the math/rand package-level functions that construct
// independent generators rather than drawing from the global source.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	if !DeterministicPkgs[path.Base(pass.Pkg.Path())] {
		return nil
	}
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := callee(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods are fine; the bans are on package-level functions
	}
	switch fn.Pkg().Path() {
	case "time":
		if bannedTime[fn.Name()] {
			pass.Reportf(call.Pos(),
				"call to time.%s in deterministic package %s; use the injected clock",
				fn.Name(), pass.Pkg.Name())
		}
	case "math/rand", "math/rand/v2":
		if !allowedRand[fn.Name()] {
			pass.Reportf(call.Pos(),
				"call to global %s.%s in deterministic package %s; use a seeded *rand.Rand",
				path.Base(fn.Pkg().Path()), fn.Name(), pass.Pkg.Name())
		}
	}
}

// checkMapRange flags map iteration whose body emits ordered output.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := types.Unalias(tv.Type).Underlying().(*types.Map); !isMap {
		return
	}
	ordered := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || ordered {
			return !ordered
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
				ordered = true
				return false
			}
		}
		if fn := callee(pass, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			ordered = true
			return false
		}
		return true
	})
	if ordered {
		pass.Reportf(rng.Pos(),
			"map iteration order feeds ordered output in deterministic package %s; sort the keys first",
			pass.Pkg.Name())
	}
}

// callee resolves the called function or method, or nil.
func callee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
