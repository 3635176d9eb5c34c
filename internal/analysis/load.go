package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path ("repro/internal/fleet", or a
	// synthetic path for analysistest testdata).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-checker complaints. Analysis proceeds on
	// partial information; callers decide whether errors are fatal
	// (analysistest) or reportable (cmd/detlint).
	TypeErrors []error
}

// Loader loads and type-checks packages from source, with no dependency on
// export data or the go command. Import paths resolve, in order, through
// Overlay roots (analysistest testdata), the module mapping, and finally
// the standard library via go/importer's source compiler. One Loader
// memoizes every package it touches, so repeated loads (the whole-repo
// sweep, the meta-test) type-check shared dependencies once.
type Loader struct {
	Fset *token.FileSet
	// ModuleRoot/ModulePath map module-relative import paths onto
	// directories: ModulePath+"/x/y" loads from ModuleRoot/x/y.
	ModuleRoot string
	ModulePath string
	// Overlay maps extra root directories tried before the module: an
	// import path p resolves to dir/p for the first dir where that
	// exists. analysistest points one at its testdata/src tree.
	Overlay []string

	std     types.ImporterFrom
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader builds a Loader rooted at the module containing dir (found by
// walking up to go.mod).
func NewLoader(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer does not implement ImporterFrom")
	}
	return &Loader{
		Fset:       fset,
		ModuleRoot: root,
		ModulePath: modPath,
		std:        std,
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		dir = parent
	}
}

func readModulePath(gomod string) (string, error) {
	raw, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// resolveDir maps an import path to a source directory, or "" when the
// path is not ours (i.e. standard library).
func (l *Loader) resolveDir(path string) string {
	for _, root := range l.Overlay {
		dir := filepath.Join(root, filepath.FromSlash(path))
		if hasGoFiles(dir) {
			return dir
		}
	}
	if path == l.ModulePath {
		return l.ModuleRoot
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleRoot, filepath.FromSlash(rest))
	}
	return ""
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleRoot, 0)
}

// ImportFrom implements types.ImporterFrom, routing module and overlay
// paths to the source loader and everything else to the stdlib importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir := l.resolveDir(path); dir != "" {
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		if len(pkg.TypeErrors) > 0 {
			return pkg.Types, fmt.Errorf("analysis: %s has type errors: %v", path, pkg.TypeErrors[0])
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}

// LoadDir loads the package in dir under the given import path.
func (l *Loader) LoadDir(path, dir string) (*Package, error) {
	return l.load(path, dir)
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	// go/build applies build-tag and platform file filtering; detlint
	// analyzes the same file set the compiler would build here.
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", dir, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(l.Fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %w", full, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	pkg := &Package{Path: path, Fset: l.Fset, Files: files}
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error:       func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	pkg.Types = tpkg
	pkg.Info = info
	l.pkgs[path] = pkg
	return pkg, nil
}

// LoadAll loads every package under the module root (the "./..." set),
// skipping testdata and hidden directories, sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.ModuleRoot && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(p) {
			dirs = append(dirs, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil {
			return nil, err
		}
		path := l.ModulePath
		if rel != "." {
			path = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(path, dir)
		if err != nil {
			// Directories holding only test files (or files excluded by
			// build tags) are not packages of the shipped build.
			var nogo *build.NoGoError
			if errors.As(err, &nogo) {
				continue
			}
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
