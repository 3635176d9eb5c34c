package analysis

import (
	"go/ast"
	"go/types"
)

// ForkshareAnalyzer flags an rng.Stream captured by a closure passed to a
// par fan-out without a Fork. A Stream's draw methods mutate its state, so
// two pool workers sharing one captured stream interleave their draws
// nondeterministically — the exact bug class the plan-then-fan-out
// discipline exists to prevent. Inside the closure a captured stream may
// only be used as the receiver of Fork, Fork2Into or Clone (all of which
// derive an independent child without consuming parent state); any draw,
// reseed or escape of the shared stream is flagged. The fix is to derive
// per-task streams during the sequential planning pass, or to call
// parent.Fork with a per-index label inside the worker.
var ForkshareAnalyzer = &Analyzer{
	Name: "forkshare",
	Run:  runForkshare,
}

// forkSafeMethods may be called on a captured stream inside a pool worker:
// they derive children deterministically (keyed by label or by current
// position) without advancing the parent.
var forkSafeMethods = map[string]bool{"Fork": true, "Fork2Into": true, "Clone": true}

func runForkshare(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, ok := isPkgFunc(pass.Info, call, "internal/par"); !ok {
				return true
			}
			for _, arg := range call.Args {
				fl, ok := arg.(*ast.FuncLit)
				if !ok {
					continue
				}
				checkCapturedStreams(pass, fl)
			}
			return true
		})
	}
	return nil
}

// checkCapturedStreams reports each rng.Stream variable declared outside
// fl but drawn from (or escaped) inside it.
func checkCapturedStreams(pass *Pass, fl *ast.FuncLit) {
	// Receivers of fork-safe calls are exempt occurrences.
	safe := map[*ast.Ident]bool{}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && forkSafeMethods[sel.Sel.Name] && isRngStream(pass.Info.ObjectOf(id)) {
			safe[id] = true
		}
		return true
	})

	reported := map[types.Object]bool{}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || safe[id] {
			return true
		}
		obj := pass.Info.ObjectOf(id)
		if obj == nil || reported[obj] || !isRngStream(obj) {
			return true
		}
		if within(obj.Pos(), fl) {
			return true // declared inside the worker: task-local stream
		}
		reported[obj] = true
		pass.Reportf(id.Pos(),
			"rng.Stream %q captured by closure passed to par fan-out without a Fork; derive a per-task stream (parent.Fork with a per-index label, or Clone during planning) instead of sharing draws",
			id.Name)
		return true
	})
}

// isRngStream reports whether obj is a variable of type rng.Stream or
// *rng.Stream (matched by package-path suffix so testdata can model the
// role).
func isRngStream(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	t := v.Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	tn := named.Obj()
	return tn.Name() == "Stream" && tn.Pkg() != nil && pkgPathHasSuffix(tn.Pkg().Path(), "internal/rng")
}
