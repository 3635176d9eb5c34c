// Command detlint statically enforces the simulator's determinism
// invariants: no wall-clock reads, no global math/rand, no order-sensitive
// map iteration, no parallelism outside the par pool, and no rng streams
// shared across pool workers without a Fork. See internal/analysis for the
// analyzer catalog and DESIGN.md §15 for the annotation grammar.
//
// It runs two ways:
//
//	detlint ./...                 lint the module
//	detlint -inventory ./...      list every //detlint:allow site with reasons
//
// It type-checks the module from source and needs only GOROOT; ./... also
// reaches nested modules such as bench/. Exit status is 0 when clean, 2
// when any unsuppressed diagnostic is found. internal/analysis's
// TestRepoIsLintClean runs the same lint inside go test ./...
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	inventory := flag.Bool("inventory", false,
		"list every //detlint:allow annotation site with its reason instead of linting")
	flag.Parse()

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fatal(err)
	}
	pkgs, err := loadPatterns(loader, flag.Args())
	if err != nil {
		fatal(err)
	}

	if *inventory {
		w := newInventoryWriter(os.Stdout, loader.ModuleRoot)
		for _, site := range analysis.Inventory(pkgs) {
			w.write(site)
		}
		return
	}

	found := 0
	for _, pkg := range pkgs {
		for _, err := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "detlint: typecheck %s: %v\n", pkg.Path, err)
		}
		diags, err := analysis.RunPackage(pkg, analysis.All())
		if err != nil {
			fatal(err)
		}
		for _, d := range diags {
			if d.Suppressed {
				continue
			}
			found++
			fmt.Fprintln(os.Stderr, rel(loader.ModuleRoot, d.String()))
		}
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "detlint: %d unsuppressed diagnostic(s)\n", found)
		os.Exit(2)
	}
}

// loadPatterns loads the packages named by patterns: "./..." (the default)
// loads the whole module; other arguments name package directories.
func loadPatterns(loader *analysis.Loader, patterns []string) ([]*analysis.Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var pkgs []*analysis.Package
	for _, pat := range patterns {
		if pat == "./..." || pat == "all" {
			all, err := loader.LoadAll()
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, all...)
			continue
		}
		dir := filepath.Clean(pat)
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		relDir, err := filepath.Rel(loader.ModuleRoot, abs)
		if err != nil || strings.HasPrefix(relDir, "..") {
			return nil, fmt.Errorf("detlint: %s is outside the module", pat)
		}
		path := loader.ModulePath
		if relDir != "." {
			path += "/" + filepath.ToSlash(relDir)
		}
		pkg, err := loader.LoadDir(path, abs)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// inventoryWriter prints allow sites as module-relative, tab-aligned lines
// — the exact bytes the inventory golden test pins.
type inventoryWriter struct {
	w    io.Writer
	root string
}

func newInventoryWriter(w io.Writer, root string) *inventoryWriter {
	return &inventoryWriter{w: w, root: root}
}

func (iw *inventoryWriter) write(site analysis.AllowSite) {
	name := site.Pos.Filename
	if r, err := filepath.Rel(iw.root, name); err == nil && !strings.HasPrefix(r, "..") {
		name = filepath.ToSlash(r)
	}
	fmt.Fprintf(iw.w, "%s:%d\t%s\t%s\n", name, site.Pos.Line, site.Analyzer, site.Reason)
}

// rel trims the module root prefix from a diagnostic line for stable,
// readable output.
func rel(root, line string) string {
	return strings.TrimPrefix(line, root+string(filepath.Separator))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "detlint:", err)
	os.Exit(1)
}
