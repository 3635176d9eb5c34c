package analysis

import (
	"go/ast"
	"go/types"
)

// GoroutineAnalyzer flags raw go statements and sync.WaitGroup fan-out
// outside internal/par and internal/distrib. The simulator's parallelism
// discipline is plan-then-fan-out through the par pool: a sequential
// planning pass fixes all stateful inputs, then pure computations write to
// disjoint pre-sized slots, which is what keeps parallel runs bitwise
// identical to sequential ones and region-sharded replay order
// deterministic. An ad-hoc goroutine bypasses that discipline; internal/par
// owns the only worker loops, and internal/distrib legitimately pumps real
// OS pipes to worker processes.
var GoroutineAnalyzer = &Analyzer{
	Name: "goroutine",
	Run:  runGoroutine,
}

func runGoroutine(pass *Pass) error {
	path := pass.Pkg.Path()
	if pkgPathHasSuffix(path, "internal/par") || pkgPathHasSuffix(path, "internal/distrib") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"raw go statement outside internal/par and internal/distrib; fan out through the par pool so replay order stays deterministic")
			case *ast.Ident:
				// Flag declarations whose type is (a pointer to)
				// sync.WaitGroup: vars, params, struct fields.
				obj, ok := pass.Info.Defs[n]
				if !ok || obj == nil {
					return true
				}
				if _, isVar := obj.(*types.Var); !isVar {
					return true
				}
				if isSyncWaitGroup(obj.Type()) {
					pass.Reportf(n.Pos(),
						"sync.WaitGroup fan-out outside internal/par and internal/distrib; fan out through the par pool so replay order stays deterministic")
				}
			}
			return true
		})
	}
	return nil
}

func isSyncWaitGroup(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}
