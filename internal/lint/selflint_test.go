package lint_test

import (
	"path/filepath"
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
