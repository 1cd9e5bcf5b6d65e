// Command powifi-lint runs the powifi static-enforcement suite
// (internal/lint): walltime, rngsource, mapiter, noalloc, sdkboundary,
// mergecheck and directive.
//
//	powifi-lint [packages]
//
// Package patterns are directories or dir/... trees, resolved against
// the module enclosing the working directory; with no arguments it
// checks ./... . Every package is linted with its _test.go files and
// its external test package (package x_test).
//
// Diagnostics go to stderr as file:line:col: analyzer: message. The
// exit status is 2 when any are reported, 1 when a package fails to
// load or type-check, and 0 otherwise.
package main //powifi:sdkboundary-ok the lint driver is the enforcement tool itself, not an SDK consumer

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/load"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// moduleRoot walks up from dir to the enclosing go.mod, returning the
// root directory and module path.
func moduleRoot(dir string) (root, module string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		gm := filepath.Join(d, "go.mod")
		if data, err := os.ReadFile(gm); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s", gm)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		d = parent
	}
}

// importPaths resolves package patterns (dir, dir/..., ./...) to the
// sorted, distinct import paths of the module's packages.
func importPaths(root, module string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var paths []string
	for _, p := range patterns {
		if p == "..." {
			p = "./..."
		}
		base, tree := strings.CutSuffix(p, "/...")
		dir, err := filepath.Abs(base)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil || !filepath.IsLocal(rel) {
			return nil, fmt.Errorf("%s is outside the module root %s", p, root)
		}
		path := module
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if !tree {
			paths = append(paths, path)
			continue
		}
		sub, err := load.Walk(dir, path)
		if err != nil {
			return nil, err
		}
		paths = append(paths, sub...)
	}
	slices.Sort(paths)
	return slices.Compact(paths), nil
}

// run lints the packages the arguments name, writes diagnostics to
// stderr and returns the exit status.
func run(args []string, stderr io.Writer) int {
	root, module, err := moduleRoot(".")
	if err != nil {
		fmt.Fprintf(stderr, "powifi-lint: %v\n", err)
		return 1
	}
	paths, err := importPaths(root, module, args)
	if err != nil {
		fmt.Fprintf(stderr, "powifi-lint: %v\n", err)
		return 1
	}
	loader := &load.Loader{Root: root, Module: module}
	found, failed := false, false
	for _, path := range paths {
		pkgs, err := loader.Load(path)
		if err != nil {
			fmt.Fprintf(stderr, "powifi-lint: %v\n", err)
			failed = true
			continue
		}
		for _, pkg := range pkgs {
			diags, err := lint.Check(pkg)
			if err != nil {
				fmt.Fprintf(stderr, "powifi-lint: %s: %v\n", pkg.Path, err)
				failed = true
			}
			for _, d := range diags {
				fmt.Fprintln(stderr, d)
			}
			found = found || len(diags) > 0
		}
	}
	switch {
	case found:
		return 2
	case failed:
		return 1
	}
	return 0
}
