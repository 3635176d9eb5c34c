package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MaporderAnalyzer flags range statements over maps whose body feeds an
// order-sensitive sink: appending to a slice that outlives the loop,
// writing to an encoder/writer (journal entries, span streams, report
// text), sending on a channel, or fanning work out through internal/par.
// Go randomizes map iteration order per run, so any of these turns into
// the classic shuffle-invariance bug: output that differs between two runs
// of the same seed.
//
// The idiomatic fix is sorted-key iteration — collect the keys, sort, then
// range over the slice — and the analyzer recognizes that idiom: an append
// whose slice is later passed to sort.* or slices.* in the same function
// is not flagged. Deliberately order-insensitive bodies (pure counting,
// building another map, commutative folds) are never flagged, and anything
// else can carry //detlint:allow maporder <reason>.
var MaporderAnalyzer = &Analyzer{
	Name: "maporder",
	Run:  runMaporder,
}

// methodSinkNames are method names treated as order-sensitive emission
// when called on state that outlives the loop: stream encoders, writers
// and the flight recorder's span/journal entry points. A call to one of
// these inside a map-range body persists values in iteration order.
var methodSinkNames = map[string]bool{
	"Encode": true, "EncodeAll": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true, "WriteTo": true,
	"Print": true, "Printf": true, "Println": true,
	"Emit": true, "Record": true, "Log": true, "Journal": true,
}

func runMaporder(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pass.Info.Types[rs.X]
				if !ok || tv.Type == nil {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				if sink := findOrderSink(pass, rs, fd.Body); sink != "" {
					pass.Reportf(rs.Pos(),
						"range over map feeds an order-sensitive sink (%s); iterate sorted keys instead, or annotate with //detlint:allow maporder <reason>",
						sink)
				}
				return true
			})
		}
	}
	return nil
}

// findOrderSink scans a map-range body for the first order-sensitive sink.
// enclosing is the whole function body, used to recognize the sorted-key
// idiom after the loop.
func findOrderSink(pass *Pass, rs *ast.RangeStmt, enclosing *ast.BlockStmt) string {
	var sink string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			sink = "channel send"
			return false
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 0 {
				if target, ok := n.Args[0].(*ast.Ident); ok {
					obj := pass.Info.ObjectOf(target)
					if obj != nil && !within(obj.Pos(), rs.Body) && !sortedLater(pass, enclosing, obj) {
						sink = "append to " + target.Name
						return false
					}
				}
				return true
			}
			if name, ok := isPkgFunc(pass.Info, n, "internal/par"); ok {
				sink = "par." + name + " fan-out"
				return false
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if isEmitCall(pass, n, sel, rs.Body) {
					sink = callName(pass, sel)
					return false
				}
			}
		}
		return true
	})
	return sink
}

// isEmitCall reports whether call emits data beyond the current iteration:
// a print/log call to a process-wide stream, an Fprint to a writer that
// outlives the loop, or a sink-named method on a receiver that does.
func isEmitCall(pass *Pass, call *ast.CallExpr, sel *ast.SelectorExpr, body *ast.BlockStmt) bool {
	if pn := packageName(pass.Info, sel); pn != nil {
		switch pn.Imported().Path() {
		case "fmt":
			switch sel.Sel.Name {
			case "Print", "Printf", "Println":
				return true
			case "Fprint", "Fprintf", "Fprintln":
				return len(call.Args) > 0 && !iterationLocal(pass, call.Args[0], body)
			}
		case "log":
			switch sel.Sel.Name {
			case "Print", "Printf", "Println", "Fatal", "Fatalf", "Fatalln":
				return true
			}
		}
		// Other package-level calls (json.Marshal, strings.Join, ...)
		// produce values; escapes are caught where the value lands.
		return false
	}
	return methodSinkNames[sel.Sel.Name] && !iterationLocal(pass, sel.X, body)
}

// iterationLocal reports whether expr denotes a variable declared inside
// the loop body (directly or through &x): writes through it are scoped to
// one iteration and cannot observe map order.
func iterationLocal(pass *Pass, expr ast.Expr, body *ast.BlockStmt) bool {
	if u, ok := expr.(*ast.UnaryExpr); ok && u.Op == token.AND {
		expr = u.X
	}
	id, ok := expr.(*ast.Ident)
	if !ok {
		// Chained or field targets (s.buf.Write, f().Write): assume
		// shared state.
		return false
	}
	obj := pass.Info.ObjectOf(id)
	if obj == nil {
		return false
	}
	if _, isPkg := obj.(*types.PkgName); isPkg {
		return false
	}
	return within(obj.Pos(), body)
}

// within reports whether pos falls inside node's source range.
func within(pos token.Pos, node ast.Node) bool {
	return pos >= node.Pos() && pos < node.End()
}

// sortedLater reports whether obj is subsequently handed to a sort.* or
// slices.* call anywhere in the enclosing function — the sorted-key idiom.
func sortedLater(pass *Pass, enclosing *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pn := packageName(pass.Info, sel)
		if pn == nil {
			return true
		}
		if p := pn.Imported().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && pass.Info.ObjectOf(id) == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// callName renders a selector call like "buf.Write" for diagnostics.
func callName(pass *Pass, sel *ast.SelectorExpr) string {
	if id, ok := sel.X.(*ast.Ident); ok {
		return id.Name + "." + sel.Sel.Name
	}
	return sel.Sel.Name
}
