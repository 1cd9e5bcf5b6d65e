// Package load parses and type-checks Go packages for the powifi-lint
// analyzers using nothing but the standard library. It exists because
// the module's dependency set is pinned to the standard library, so
// golang.org/x/tools/go/packages is unavailable; this loader covers the
// two shapes the lint suite needs:
//
//   - the repo itself (`powifi-lint ./...` and TestRepoIsClean): the
//     module's packages resolve to directories under the module root,
//     and standard-library imports type-check from $GOROOT/src via the
//     stdlib "source" importer;
//   - linttest fixtures (internal/lint/testdata/src): a GOPATH-style
//     tree where every non-stdlib import path maps to a directory under
//     the tree root.
//
// Test files are always in scope, as under go vet: a package is loaded
// with its in-package _test.go files, and Load returns its external
// test package (package x_test) beside it, whose import of x resolves
// to the test-augmented x. Importers see the augmented package too —
// a superset of what go vet compiles, which only differs when two
// packages' in-package tests import each other (legal in Go, reported
// here as an import cycle).
//
// The loader is deliberately simple: no vendoring, no cgo (the build
// context is forced to CgoEnabled=false, which the repo satisfies —
// the deterministic kernels are pure Go by contract), no build-tag
// matrix beyond what go/build's default context selects.
package load

import (
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
	"sync"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the package's import path (for the module's own packages,
	// the module-qualified path, e.g. "repro/internal/fleet"; an external
	// test package adds "_test").
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects soft type-checking errors. The analyzers run
	// anyway when the AST is intact; lint.Check returns them beside the
	// diagnostics.
	TypeErrors []error

	xtest []string // external test files, type-checked by Load
}

// Loader resolves import paths to directories under Root and
// type-checks them, falling back to the standard library's source
// importer for everything it cannot find there.
type Loader struct {
	// Root is the directory the loader resolves non-stdlib import paths
	// under.
	Root string
	// Module, when non-empty, is the import-path prefix that maps onto
	// Root: "repro" means "repro/internal/fleet" loads from
	// Root/internal/fleet. When empty, every import path is tried
	// verbatim under Root (the fixture-tree shape).
	Module string

	Fset *token.FileSet

	once   sync.Once
	stdlib types.Importer
	pkgs   map[string]*Package
	state  map[string]int // 0 unvisited, 1 in progress, 2 done
}

const (
	stLoading = 1
	stDone    = 2
)

func (l *Loader) init() {
	l.once.Do(func() {
		if l.Fset == nil {
			l.Fset = token.NewFileSet()
		}
		// The repo is pure Go; disabling cgo keeps the source importer
		// off the cgo preprocessing path for stdlib packages like net.
		build.Default.CgoEnabled = false
		l.stdlib = importer.ForCompiler(l.Fset, "source", nil)
		l.pkgs = make(map[string]*Package)
		l.state = make(map[string]int)
	})
}

// dirFor maps an import path to its candidate directory under Root, or
// "" when the path is outside the loader's tree.
func (l *Loader) dirFor(path string) string {
	rel := path
	if l.Module != "" {
		if path == l.Module {
			rel = "."
		} else if strings.HasPrefix(path, l.Module+"/") {
			rel = path[len(l.Module)+1:]
		} else {
			return ""
		}
	}
	dir := filepath.Join(l.Root, filepath.FromSlash(rel))
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		return ""
	}
	return dir
}

// Import implements types.Importer: local tree first, stdlib second.
func (l *Loader) Import(path string) (*types.Package, error) {
	l.init()
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir := l.dirFor(path); dir != "" {
		p, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.stdlib.Import(path)
}

// Load loads (or returns the cached) package at the given import path
// and returns it followed, when the directory has one, by its external
// test package, which is type-checked afresh on each call.
func (l *Loader) Load(path string) ([]*Package, error) {
	l.init()
	dir := l.dirFor(path)
	if dir == "" {
		return nil, fmt.Errorf("lint/load: package %q not found under %s", path, l.Root)
	}
	pkg, err := l.load(path, dir)
	if err != nil {
		return nil, err
	}
	if len(pkg.xtest) == 0 {
		return []*Package{pkg}, nil
	}
	xpkg, err := l.check(path+"_test", dir, pkg.xtest)
	if err != nil {
		return nil, err
	}
	return []*Package{pkg, xpkg}, nil
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if l.state[path] == stDone {
		return l.pkgs[path], nil
	}
	if l.state[path] == stLoading {
		return nil, fmt.Errorf("lint/load: import cycle through %q", path)
	}
	l.state[path] = stLoading
	defer func() {
		if l.state[path] != stDone {
			l.state[path] = 0 // allow a retry to produce the same error
		}
	}()

	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint/load: %s: %w", dir, err)
	}
	pkg, err := l.check(path, dir, append(bp.GoFiles, bp.TestGoFiles...))
	if err != nil {
		return nil, err
	}
	pkg.xtest = bp.XTestGoFiles
	l.pkgs[path] = pkg
	l.state[path] = stDone
	return pkg, nil
}

// check parses the named files of dir and type-checks them as one
// package with the given import path.
func (l *Loader) check(path, dir string, names []string) (*Package, error) {
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint/load: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint/load: no Go files in %s", dir)
	}

	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if tpkg == nil {
		return nil, fmt.Errorf("lint/load: type-checking %q: %w", path, err)
	}
	pkg.Files = files
	pkg.Types = tpkg
	pkg.Info = info
	return pkg, nil
}

// Walk enumerates the import paths of every package under root that
// contains at least one non-test Go file, skipping testdata, vendored
// trees, hidden directories and git metadata. Paths are returned in
// lexical order, module-qualified when module is non-empty.
func Walk(root, module string) ([]string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(p, 0)
		if err != nil || len(bp.GoFiles) == 0 {
			return nil // not a buildable package dir; keep walking
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		ip := filepath.ToSlash(rel)
		switch {
		case ip == ".":
			ip = module
		case module != "":
			ip = module + "/" + ip
		}
		if ip != "" {
			paths = append(paths, ip)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
