// Package analysis is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis vocabulary — just enough surface
// for the powifi-lint analyzers to be written in the standard shape
// (an Analyzer with a Run func over a typed Pass) without pulling
// x/tools into the module. The build environment pins the module's
// dependency set to the standard library, so the real framework is not
// available; the analyzers here are source-compatible with it in
// spirit and could be ported by swapping this import.
//
// Only the pieces the suite actually uses exist: no Facts (none of the
// powifi analyzers are modular in that sense — every contract is
// package-local), no ResultOf/Requires plumbing, no SuggestedFixes.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check: a name (the diagnostic tag),
// one-paragraph documentation, and the Run function.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is the analyzer's documentation: first line is the summary
	// shown in flag usage.
	Doc string
	// Run applies the analyzer to one package and reports findings via
	// pass.Report. The returned value is unused by this driver (kept
	// for shape-compatibility with go/analysis).
	Run func(pass *Pass) (any, error)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf is the printf convenience over Report.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
