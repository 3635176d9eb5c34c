package analysis

import (
	"go/ast"
)

// WallclockAnalyzer flags every reference to time.Now, time.Since and
// time.Sleep. The simulator runs on a virtual clock (accel.SoC.Now and the
// fleet event loop's virtual horizon); a wall-clock read anywhere in a
// simulation package makes decisions depend on host speed and breaks
// bit-identity across machines and runs.
//
// Wall-clock is legal only at explicitly annotated sites — CLI progress
// reporting in cmd/* and benchmark throughput measurement (events/sec keys
// documented as wall-clock-drifting) — each carrying
// //detlint:allow wallclock <reason>, which -inventory lists and the
// inventory golden pins.
var WallclockAnalyzer = &Analyzer{
	Name: "wallclock",
	Run:  runWallclock,
}

func runWallclock(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pn := packageName(pass.Info, sel)
			if pn == nil || pn.Imported().Path() != "time" {
				return true
			}
			switch sel.Sel.Name {
			case "Now", "Since", "Sleep":
				pass.Reportf(sel.Pos(),
					"wall-clock time.%s in simulation code; use the virtual clock, or annotate a deliberate measurement site with //detlint:allow wallclock <reason>",
					sel.Sel.Name)
			}
			return true
		})
	}
	return nil
}
