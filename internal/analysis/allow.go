package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// allowPrefix is the annotation marker. The grammar is
//
//	//detlint:allow <analyzer> <reason...>
//
// placed either on the same line as the finding or on the line immediately
// above it. The analyzer name must be one of the suite's; the reason is
// mandatory free text explaining why wall-clock (or whichever invariant)
// is legal at this one site. cmd/detlint -inventory lists every site, and
// the inventory golden test pins the list so new suppressions require a
// deliberate golden update.
const allowPrefix = "//detlint:allow"

// AllowSite is one parsed //detlint:allow annotation.
type AllowSite struct {
	Pos      token.Position
	Analyzer string
	Reason   string
}

// allowIndex indexes a package's annotations by file and line for
// suppression matching.
type allowIndex struct {
	byFileLine map[string]map[int][]*AllowSite
	sites      []*AllowSite
}

// covers reports whether an annotation covers a diagnostic at pos for the
// named analyzer: one on the same line, or on the line directly above.
func (ix *allowIndex) covers(pos token.Position, analyzer string) bool {
	lines := ix.byFileLine[pos.Filename]
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, s := range lines[line] {
			if s.Analyzer == analyzer {
				return true
			}
		}
	}
	return false
}

// collectAllows parses every //detlint:allow annotation in files. Malformed
// annotations (unknown analyzer, missing reason) are returned as
// diagnostics of the pseudo-analyzer "annotation"; they cannot be
// suppressed, so a typoed escape hatch fails the build instead of silently
// allowing everything or nothing.
func collectAllows(fset *token.FileSet, files []*ast.File) (*allowIndex, []Diagnostic) {
	ix := &allowIndex{byFileLine: map[string]map[int][]*AllowSite{}}
	var diags []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					// e.g. //detlint:allowed — not ours.
					continue
				}
				// A nested "// ..." (the analysistest want marker, or an
				// unrelated trailing remark) is not part of the annotation.
				rest, _, _ = strings.Cut(rest, " //")
				name, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
				reason = strings.TrimSpace(reason)
				switch {
				case name == "":
					diags = append(diags, Diagnostic{Pos: pos, Analyzer: "annotation",
						Message: "malformed //detlint:allow: missing analyzer name"})
					continue
				case ByName(name) == nil:
					diags = append(diags, Diagnostic{Pos: pos, Analyzer: "annotation",
						Message: "malformed //detlint:allow: unknown analyzer " + quote(name)})
					continue
				case reason == "":
					diags = append(diags, Diagnostic{Pos: pos, Analyzer: "annotation",
						Message: "malformed //detlint:allow " + name + ": a reason is required"})
					continue
				}
				site := &AllowSite{Pos: pos, Analyzer: name, Reason: reason}
				ix.sites = append(ix.sites, site)
				lines := ix.byFileLine[pos.Filename]
				if lines == nil {
					lines = map[int][]*AllowSite{}
					ix.byFileLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], site)
			}
		}
	}
	return ix, diags
}

func quote(s string) string { return "\"" + s + "\"" }

// Inventory lists every //detlint:allow site in the given packages, sorted
// by file then line. It is the data behind cmd/detlint -inventory and the
// golden test that pins the repository's suppression set.
func Inventory(pkgs []*Package) []AllowSite {
	var out []AllowSite
	for _, pkg := range pkgs {
		ix, _ := collectAllows(pkg.Fset, pkg.Files)
		for _, s := range ix.sites {
			out = append(out, *s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return out
}
