// Package lint is the powifi static-enforcement suite: go/analysis-style
// analyzers that turn the repo's determinism, RNG-discipline,
// hot-path-allocation and SDK-boundary contracts from tribal knowledge
// (runtime tests, a grep in CI) into compile-time checks.
//
// The analyzers (Check runs them over one loaded package; the
// `go run ./cmd/powifi-lint ./...` driver and TestRepoIsClean run them
// over every package of the module, test files included):
//
//   - walltime: no wall-clock reads (time.Now/Since/Sleep/timers) in
//     deterministic packages; escape hatch //powifi:walltime-ok <reason>.
//   - rngsource: all randomness flows through internal/xrand labeled
//     streams — no math/rand, math/rand/v2 or crypto/rand elsewhere;
//     escape hatch //powifi:rngsource-ok <reason>.
//   - mapiter: no ordering-sensitive `range` over a map in deterministic
//     packages (map iteration order is the classic worker-invariance
//     killer); key-collection and delete-only loops are recognized as
//     safe, everything else needs //powifi:mapiter-ok <reason>.
//   - noalloc: functions annotated //powifi:noalloc reject
//     allocation-prone constructs (escaping composite literals,
//     capturing closures, fmt calls, string concatenation, interface
//     boxing of non-pointer-shaped values, make/new, go statements).
//   - sdkboundary: production code under cmd/ and examples/ must not
//     import the module's internal packages; escape hatch
//     //powifi:sdkboundary-ok <reason> (package clause = whole file,
//     import line = that import).
//   - mergecheck: error results of stats.Sketch.TryMerge and of
//     the checkpoint encode/decode path must not be discarded; escape
//     hatch //powifi:mergecheck-ok <reason>.
//   - directive: hygiene for the //powifi: comments themselves — known
//     names only, and every *-ok escape hatch carries a human-readable
//     reason.
//
// All analyzers but directive skip _test.go files: the contracts bind
// production code, while the runtime suites (goldens, worker-invariance,
// AllocsPerRun pins) exercise the tests themselves.
package lint

import (
	"cmp"
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// Analyzers is the full powifi-lint suite in reporting order.
var Analyzers = []*analysis.Analyzer{
	WalltimeAnalyzer,
	RngsourceAnalyzer,
	MapiterAnalyzer,
	NoallocAnalyzer,
	SDKBoundaryAnalyzer,
	MergecheckAnalyzer,
	DirectiveAnalyzer,
}

// Diagnostic is one finding, resolved to its source position and
// tagged with the analyzer that reported it.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Check runs the analyzers — the whole suite when none are given —
// over one loaded package and returns their diagnostics in source
// order. The error joins the package's type errors and any analyzer
// failure; the analyzers run regardless, since the AST is intact.
func Check(pkg *load.Package, analyzers ...*analysis.Analyzer) ([]Diagnostic, error) {
	if len(analyzers) == 0 {
		analyzers = Analyzers
	}
	errs := slices.Clone(pkg.TypeErrors)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report: func(d analysis.Diagnostic) {
				out = append(out, Diagnostic{Pos: pkg.Fset.Position(d.Pos), Analyzer: a.Name, Message: d.Message})
			},
		}
		if _, err := a.Run(pass); err != nil {
			errs = append(errs, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err))
		}
	}
	slices.SortStableFunc(out, func(x, y Diagnostic) int {
		return cmp.Or(strings.Compare(x.Pos.Filename, y.Pos.Filename),
			cmp.Compare(x.Pos.Line, y.Pos.Line), cmp.Compare(x.Pos.Column, y.Pos.Column))
	})
	return out, errors.Join(errs...)
}

// detPackages names the deterministic packages: every package whose
// event order, RNG draws or float folds feed the bit-identical fleet
// output. internal/fleet is included — its telemetry/trace/progress
// call sites are the documented walltime escape hatches.
var detPackages = map[string]bool{
	"eventsim":  true,
	"deploy":    true,
	"core":      true,
	"lifecycle": true,
	"medium":    true,
	"mac":       true,
	"router":    true,
	"monitor":   true,
	"rf":        true,
	"phy":       true,
	"stats":     true,
	"surface":   true,
	"xrand":     true,
	"fleet":     true,
}

// isDetPackage reports whether the package path denotes a deterministic
// package: the segment after the last "internal" segment is in
// detPackages (so internal/fleet and any future internal/fleet/sub
// count, but internal/telemetry — wall-clock by design — does not).
func isDetPackage(path string) bool {
	seg := strings.Split(path, "/")
	for i := len(seg) - 2; i >= 0; i-- {
		if seg[i] == "internal" {
			return detPackages[seg[i+1]]
		}
	}
	return false
}

// isTestFile reports whether the file containing pos is a _test.go
// file. The analyzers skip those by contract.
func isTestFile(pass *analysis.Pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go")
}

// directivePrefix introduces every powifi lint directive.
const directivePrefix = "//powifi:"

// directive is one parsed //powifi: comment.
type directive struct {
	name   string // e.g. "walltime-ok", "noalloc"
	reason string // text after the name; the *-ok hatches require it
	pos    token.Pos
	line   int
}

// fileDirectives maps each file to its directives keyed by source line.
type fileDirectives map[*ast.File]map[int][]directive

// parseDirectives collects every //powifi: comment in the pass's files.
// It must not skip test files: the directive analyzer validates
// directives wherever they appear.
func parseDirectives(pass *analysis.Pass) fileDirectives {
	out := make(fileDirectives, len(pass.Files))
	for _, f := range pass.Files {
		m := make(map[int][]directive)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				name, reason := rest, ""
				if i := strings.IndexAny(rest, " \t"); i >= 0 {
					name, reason = rest[:i], strings.TrimSpace(rest[i+1:])
				}
				d := directive{
					name:   name,
					reason: reason,
					pos:    c.Pos(),
					line:   pass.Fset.Position(c.Pos()).Line,
				}
				m[d.line] = append(m[d.line], d)
			}
		}
		if len(m) > 0 {
			out[f] = m
		}
	}
	return out
}

// okAt reports whether a directive of the given name covers the source
// line of pos: the directive sits on the same line (trailing comment)
// or on the line immediately above (its own comment line).
func (fd fileDirectives) okAt(pass *analysis.Pass, file *ast.File, pos token.Pos, name string) bool {
	m := fd[file]
	if m == nil {
		return false
	}
	line := pass.Fset.Position(pos).Line
	for _, ds := range [][]directive{m[line], m[line-1]} {
		for _, d := range ds {
			if d.name == name {
				return true
			}
		}
	}
	return false
}
