package lint

import (
	"strconv"
	"strings"

	"repro/internal/lint/analysis"
)

// RngsourceAnalyzer enforces the RNG discipline: every random draw in
// the repo flows through internal/xrand's labeled splitmix64 streams,
// which is what makes per-home randomness a pure function of
// (seed, label) — the foundation of both worker invariance and the
// deterministic fault-injection registry. math/rand's global state,
// math/rand/v2's per-call sources and crypto/rand's kernel entropy all
// break that: the same scenario would stop producing the same bits.
var RngsourceAnalyzer = &analysis.Analyzer{
	Name: "rngsource",
	Doc: "forbid math/rand, math/rand/v2 and crypto/rand outside internal/xrand\n\n" +
		"All randomness must flow through internal/xrand labeled streams so\n" +
		"every draw is a pure function of (seed, label). Escape hatch:\n" +
		"//powifi:rngsource-ok <reason> on the import line.",
	Run: runRngsource,
}

var rngBannedImports = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

// isXrandPackage reports whether the path is internal/xrand itself (the
// one package allowed to reference the banned sources, e.g. to cite or
// wrap them).
func isXrandPackage(path string) bool {
	return path == "xrand" || strings.HasSuffix(path, "/xrand") ||
		strings.Contains(path, "/xrand/")
}

func runRngsource(pass *analysis.Pass) (any, error) {
	if isXrandPackage(pass.Pkg.Path()) {
		return nil, nil
	}
	dirs := parseDirectives(pass)
	for _, f := range pass.Files {
		if isTestFile(pass, f.Pos()) {
			continue
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !rngBannedImports[path] {
				continue
			}
			if dirs.okAt(pass, f, imp.Pos(), "rngsource-ok") {
				continue
			}
			pass.Reportf(imp.Pos(),
				"import of %s outside internal/xrand: randomness must flow through xrand's "+
					"labeled streams so every draw is a pure function of (seed, label)", path)
		}
	}
	return nil, nil
}
