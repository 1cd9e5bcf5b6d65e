package lint

import (
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// DirectiveAnalyzer is the hygiene check for the //powifi: comments the
// other analyzers honor. A typo'd directive (//powifi:walltime-okay) or
// an escape hatch without a justification silently weakens the suite,
// so both are lint errors:
//
//   - the directive name must be one the suite knows;
//   - every *-ok escape hatch must carry a human-readable reason.
//
// Unlike the contract analyzers, this one looks at test files too:
// directives are meaningful wherever they appear.
var DirectiveAnalyzer = &analysis.Analyzer{
	Name: "directive",
	Doc: "validate //powifi: directives: known names, reasoned escape hatches\n\n" +
		"Escape-hatch directives (*-ok) must carry a human-readable reason;\n" +
		"unknown directive names are rejected as typos.",
	Run: runDirective,
}

// knownDirectives are the names the suite honors. noalloc is an
// annotation (it enables checking); the *-ok names are escape hatches
// (they suppress it) and therefore require a reason.
var knownDirectives = map[string]bool{
	"noalloc":        true,
	"walltime-ok":    true,
	"rngsource-ok":   true,
	"mapiter-ok":     true,
	"sdkboundary-ok": true,
	"mergecheck-ok":  true,
}

func runDirective(pass *analysis.Pass) (any, error) {
	dirs := parseDirectives(pass)
	for _, m := range dirs {
		// Deterministic reporting order within a file.
		lines := make([]int, 0, len(m))
		for line := range m { //powifi:mapiter-ok keys are sorted before use
			lines = append(lines, line)
		}
		sort.Ints(lines)
		for _, line := range lines {
			for _, d := range m[line] {
				if !knownDirectives[d.name] {
					pass.Reportf(d.pos,
						"unknown powifi directive %q (known: mapiter-ok, mergecheck-ok, noalloc, "+
							"rngsource-ok, sdkboundary-ok, walltime-ok)", d.name)
					continue
				}
				if strings.HasSuffix(d.name, "-ok") && d.reason == "" {
					pass.Reportf(d.pos,
						"//powifi:%s requires a human-readable reason after the directive name", d.name)
				}
			}
		}
	}
	return nil, nil
}
