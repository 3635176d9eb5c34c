// Package analysis is detlint: a static-analysis suite that enforces the
// simulator's bit-identity invariants at build time.
//
// Every PR since the seed has defended one property — simulated decisions are
// bit-identical across seeds, region counts, device shuffles and
// crash/recover cycles — but until now the enforcement was entirely dynamic
// (fuzz corpora, equivalence oracles, stale-cache panic flags). A single
// stray time.Now, global math/rand draw, unsorted map iteration feeding an
// encoder, or raw go statement can silently break determinism until a fuzzer
// happens to catch it. The analyzers here move those invariants into the
// compiler-adjacent layer so they are checked on every build of every
// package, not just on the paths a test exercises.
//
// The suite (see DESIGN.md §15 for the catalog and annotation grammar):
//
//   - wallclock: no time.Now / time.Since / time.Sleep outside explicitly
//     annotated wall-clock measurement sites — simulation runs on the
//     virtual clock only.
//   - globalrand: no math/rand or math/rand/v2 outside internal/rng; all
//     randomness flows through seeded rng.Stream forks.
//   - maporder: no range over a map whose body feeds an order-sensitive
//     sink (slice append, encoder/writer, channel send, par fan-out) —
//     the pattern behind shuffle-invariance bugs.
//   - goroutine: no raw go statements or sync.WaitGroup fan-out outside
//     internal/par and internal/distrib — parallelism flows through the
//     pool so region-sharding replay order stays deterministic.
//   - forkshare: no rng.Stream captured by a closure passed to a par
//     fan-out without deriving a per-task stream via Fork/Clone first.
//
// Findings are suppressed site-by-site with a //detlint:allow annotation
// (see allow.go); cmd/detlint runs the suite over the module, or in
// -inventory mode lists every suppression with its reason.
//
// The framework deliberately mirrors the shape of golang.org/x/tools
// go/analysis (Analyzer, Pass, Diagnostic, an analysistest harness) but is
// built on the standard library's go/ast, go/parser, go/types and
// go/importer only, so the repository keeps its zero-dependency footprint.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one determinism invariant and how to check it.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //detlint:allow annotations.
	Name string
	// Run performs the check on one package, reporting findings via
	// pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one package's syntax and type information through one
// analyzer's Run. A fresh Pass is built per (package, analyzer) pair.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's non-test files. detlint checks shipped
	// simulation code; test files exercise wall-clock timeouts and
	// scratch goroutines legitimately and are excluded by contract.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	diagnostics []Diagnostic
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed is set by the driver when a matching //detlint:allow
	// annotation covers the finding's line.
	Suppressed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full determinism suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		WallclockAnalyzer,
		GlobalrandAnalyzer,
		MaporderAnalyzer,
		GoroutineAnalyzer,
		ForkshareAnalyzer,
	}
}

// ByName resolves an analyzer name, for validating annotations.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunPackage runs every analyzer in suite over one loaded package, applies
// //detlint:allow suppressions, and returns all diagnostics (including
// suppressed ones, so callers can audit annotation use) sorted by position.
// Malformed annotations surface as non-suppressible diagnostics of the
// pseudo-analyzer "annotation".
func RunPackage(pkg *Package, suite []*Analyzer) ([]Diagnostic, error) {
	allows, annDiags := collectAllows(pkg.Fset, pkg.Files)
	var out []Diagnostic
	out = append(out, annDiags...)
	for _, a := range suite {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
		}
		for _, d := range pass.diagnostics {
			d.Suppressed = allows.covers(d.Pos, a.Name)
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// pkgPathHasSuffix reports whether path is pkg or ends with "/"+pkg —
// the analyzers exempt packages by role (internal/rng, internal/par,
// internal/distrib) rather than by module path, so testdata packages can
// model those roles under synthetic import paths.
func pkgPathHasSuffix(path, pkg string) bool {
	return path == pkg || strings.HasSuffix(path, "/"+pkg)
}

// packageName resolves sel's qualifier to an imported package, or nil.
func packageName(info *types.Info, sel *ast.SelectorExpr) *types.PkgName {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := info.Uses[id].(*types.PkgName)
	return pn
}

// isPkgFunc reports whether call invokes the named function of the package
// with the given import-path suffix (e.g. par.ForEach for "internal/par").
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgSuffix string, names ...string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	pn := packageName(info, sel)
	if pn == nil || !pkgPathHasSuffix(pn.Imported().Path(), pkgSuffix) {
		return "", false
	}
	if len(names) == 0 {
		return sel.Sel.Name, true
	}
	for _, n := range names {
		if sel.Sel.Name == n {
			return n, true
		}
	}
	return "", false
}
