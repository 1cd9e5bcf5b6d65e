package lint_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/load"
)

// TestRepoIsClean runs the full analyzer suite over the repository
// itself, test files and external test packages included, and fails on
// any diagnostic: the lint contracts are part of tier-1, not just a CI
// side job. Skipped under -short — type-checking the whole module plus
// its stdlib closure from source takes a while.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("self-lint type-checks the whole module from source; skipped under -short")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := load.Walk(root, "repro")
	if err != nil {
		t.Fatalf("enumerating packages: %v", err)
	}
	if len(paths) < 10 {
		t.Fatalf("suspiciously few packages under %s: %v", root, paths)
	}
	l := &load.Loader{Root: root, Module: "repro"}
	for _, path := range paths {
		pkgs, err := l.Load(path)
		if err != nil {
			t.Errorf("loading %s: %v", path, err)
			continue
		}
		for _, pkg := range pkgs {
			diags, err := lint.Check(pkg)
			if err != nil {
				t.Errorf("%s: %v", pkg.Path, err)
			}
			for _, d := range diags {
				t.Error(d)
			}
		}
	}
}

// TestSDKBoundaryHatches pins the inventory of //powifi:sdkboundary-ok
// escape hatches in the module (lint testdata aside). The only holder
// is the lint driver, which is the enforcement tool rather than an SDK
// consumer; every other command and example runs on the public facade.
// A new bypass has to add itself here and say why.
func TestSDKBoundaryHatches(t *testing.T) {
	want := []string{"cmd/powifi-lint/main.go"}

	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var got []string
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//powifi:sdkboundary-ok")
				if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
					got = append(got, filepath.ToSlash(rel))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sdkboundary-ok hatches in %v, want only %v", got, want)
	}
}
