package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package, the unit every
// analyzer operates on.
type Package struct {
	// Path is the package's import path (module path + directory).
	Path string
	// ModPath is the module path of the tree the package was loaded
	// from; analyzers use it to tell module-internal callees from
	// dependencies.
	ModPath string
	// Fset maps token positions back to file/line/column.
	Fset *token.FileSet
	// Files holds the parsed syntax of every non-test Go file, in
	// file-name order.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's expression and object tables.
	Info *types.Info
}

// Position resolves a token position against the package's file set.
func (p *Package) Position(pos token.Pos) token.Position { return p.Fset.Position(pos) }

// Loader parses and type-checks packages of one module tree using
// only the standard library (go/parser + go/types). Module-local
// imports resolve against the tree on disk; standard-library imports
// resolve through the compiler's export data, falling back to
// type-checking the GOROOT source when export data is unavailable.
type Loader struct {
	modPath string
	modDir  string
	fset    *token.FileSet

	std       types.Importer // gc export data (fast path)
	stdSource types.Importer // GOROOT source (fallback), created lazily

	pkgs    map[string]*Package
	failed  map[string]error
	loading map[string]bool
}

// NewLoader returns a loader rooted at the module directory modDir,
// reading the module path from its go.mod.
func NewLoader(modDir string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(modDir, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: read go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", modDir)
	}
	return NewTreeLoader(modPath, modDir), nil
}

// NewTreeLoader returns a loader for a directory tree without a
// go.mod, rooting its import-path space at modPath. Analyzer tests
// use it to load fixture trees under testdata.
func NewTreeLoader(modPath, modDir string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		modPath: modPath,
		modDir:  modDir,
		fset:    fset,
		std:     importer.Default(),
		pkgs:    map[string]*Package{},
		failed:  map[string]error{},
		loading: map[string]bool{},
	}
}

// ModPath returns the module path the loader roots import paths at.
func (l *Loader) ModPath() string { return l.modPath }

// Import implements types.Importer: module-local paths load from the
// tree, everything else resolves as a standard-library package.
func (l *Loader) Import(importPath string) (*types.Package, error) {
	if importPath == "unsafe" {
		return types.Unsafe, nil
	}
	if rel, ok := l.relModulePath(importPath); ok {
		p, err := l.load(filepath.Join(l.modDir, filepath.FromSlash(rel)), importPath)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	pkg, err := l.std.Import(importPath)
	if err == nil {
		return pkg, nil
	}
	if l.stdSource == nil {
		l.stdSource = importer.ForCompiler(l.fset, "source", nil)
	}
	return l.stdSource.Import(importPath)
}

// relModulePath reports whether importPath is inside the module and,
// if so, its directory relative to the module root.
func (l *Loader) relModulePath(importPath string) (string, bool) {
	if importPath == l.modPath {
		return ".", true
	}
	if rel, ok := strings.CutPrefix(importPath, l.modPath+"/"); ok {
		return rel, true
	}
	return "", false
}

// Load parses and type-checks the package in one directory (given
// relative to the module root, e.g. "internal/core").
func (l *Loader) Load(relDir string) (*Package, error) {
	importPath := l.modPath
	if relDir != "." && relDir != "" {
		importPath = path.Join(l.modPath, filepath.ToSlash(relDir))
	}
	return l.load(filepath.Join(l.modDir, filepath.FromSlash(relDir)), importPath)
}

// LoadAll walks the module tree and loads every package in it,
// skipping testdata trees and hidden or underscore-prefixed
// directories. Loading is lenient: a package that fails to parse or
// type-check is recorded as an error and skipped, so one broken
// directory does not hide findings in the rest of the tree (the CLI
// turns a non-empty error list into exit 2). Packages return sorted
// by import path; errors in walk order.
func (l *Loader) LoadAll() ([]*Package, []error) {
	var out []*Package
	var errs []error
	walkErr := filepath.WalkDir(l.modDir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.modDir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if !hasGoFiles(p) {
			return nil
		}
		rel, err := filepath.Rel(l.modDir, p)
		if err != nil {
			return err
		}
		pkg, err := l.Load(rel)
		if err != nil {
			errs = append(errs, err)
			return nil
		}
		out = append(out, pkg)
		return nil
	})
	if walkErr != nil {
		errs = append(errs, walkErr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, errs
}

// hasGoFiles reports whether dir directly contains at least one
// non-test Go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && isLintableFile(dir, e.Name()) {
			return true
		}
	}
	return false
}

// isLintableFile reports whether name, in dir, is a Go file the
// loader should parse: not a test file, and one a plain go build
// compiles, which also rules out hidden and underscore-prefixed names
// and, of a pair split by a //go:build race constraint, the race file.
func isLintableFile(dir, name string) bool {
	if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false
	}
	ok, err := build.Default.MatchFile(dir, name)
	return ok || err != nil // an unreadable file fails loudly in the parse
}

// load parses and type-checks the package in dir under importPath,
// memoizing both successes and failures by import path (a broken
// package imported by many others reports one error, not one per
// importer) and detecting import cycles.
func (l *Loader) load(dir, importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if err, ok := l.failed[importPath]; ok {
		return nil, err
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)
	fail := func(err error) (*Package, error) {
		l.failed[importPath] = err
		return nil, err
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return fail(fmt.Errorf("lint: %w", err))
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !isLintableFile(dir, e.Name()) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return fail(fmt.Errorf("lint: %w", err))
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return fail(fmt.Errorf("lint: no Go files in %s", dir))
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return fail(fmt.Errorf("lint: type-check %s: %w", importPath, err))
	}
	p := &Package{
		Path:    importPath,
		ModPath: l.modPath,
		Fset:    l.fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}
	l.pkgs[importPath] = p
	return p, nil
}
