// Package linttest is a miniature analysistest: it loads fixture
// packages from a GOPATH-style tree (testdata/src/<importpath>), runs
// an analyzer over each one and its external test package through
// lint.Check, and matches reported diagnostics against
// expectations written in the fixture source as trailing comments:
//
//	time.Now() // want "wall-clock reads"
//
// The quoted string is a regular expression matched against the
// diagnostic message; every diagnostic must be matched by a want on its
// line, and every want must be matched by a diagnostic. Multiple wants
// on one line each need a matching diagnostic.
package linttest

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// sharedLoader caches type-checked fixture packages (and, more
// importantly, the source-imported standard library) across every test
// in the binary.
var (
	loaderMu sync.Mutex
	loaders  = map[string]*load.Loader{}
)

func loaderFor(root string) *load.Loader {
	loaderMu.Lock()
	defer loaderMu.Unlock()
	l := loaders[root]
	if l == nil {
		l = &load.Loader{Root: root}
		loaders[root] = l
	}
	return l
}

// wantRe matches one expectation: want "regexp" (analysistest's
// backquoted form is also accepted).
var wantRe = regexp.MustCompile("want\\s+(?:\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`)")

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run loads each fixture package under dir (a testdata directory
// containing src/) and checks the analyzer's diagnostics against the
// // want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	root := filepath.Join(testdata, "src")
	l := loaderFor(root)
	for _, path := range pkgPaths {
		runOne(t, l, a, path)
	}
}

func runOne(t *testing.T, l *load.Loader, a *analysis.Analyzer, path string) {
	t.Helper()
	pkgs, err := l.Load(path)
	if err != nil {
		t.Fatalf("%s: loading fixture %q: %v", a.Name, path, err)
	}
	wants := readWants(t, pkgs[0].Dir)
	for _, pkg := range pkgs {
		diags, err := lint.Check(pkg, a)
		if err != nil {
			t.Errorf("%s: fixture %q: %v", a.Name, pkg.Path, err)
		}
		for _, d := range diags {
			if !matchWant(wants, d.Pos, d.Message) {
				t.Errorf("%s: unexpected diagnostic at %s:%d: %s", a.Name, d.Pos.Filename, d.Pos.Line, d.Message)
			}
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: no diagnostic at %s:%d matching %q", a.Name, w.file, w.line, w.re)
		}
	}
}

// readWants collects the expectations in every Go file of the fixture
// directory — not only the files the loader type-checked, so a file it
// skips fails its wants instead of passing unseen.
func readWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var wants []*expectation
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.Contains(c.Text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					} else {
						pat = strings.ReplaceAll(pat, `\"`, `"`)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

func matchWant(wants []*expectation, pos token.Position, msg string) bool {
	for _, w := range wants {
		if w.matched || w.file != pos.Filename || w.line != pos.Line {
			continue
		}
		if w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}
