package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/lint/analysis"
)

// SDKBoundaryAnalyzer enforces the SDK boundary: production code under
// cmd/ and examples/ consumes the public powifi SDK, never the module's
// internal packages. The pinned api/powifi.txt surface is the contract
// the CLIs and examples demonstrate; an internal import there is
// exactly the kind of leak that lets the SDK rot. This replaces the
// grep-based CI step — unlike the grep it resolves real imports (so a
// renamed or dot import cannot hide) and it covers every cmd/ and
// examples/ package, with an explicit, reasoned escape hatch for code
// that is not an SDK consumer (today only the lint driver itself;
// TestSDKBoundaryHatches pins the inventory):
// //powifi:sdkboundary-ok <reason> on the package clause exempts the
// file; on an import line, that import.
var SDKBoundaryAnalyzer = &analysis.Analyzer{
	Name: "sdkboundary",
	Doc: "forbid module-internal imports in cmd/ and examples/ production code\n\n" +
		"SDK consumers must stay on the public surface (api/powifi.txt).\n" +
		"Escape hatch: //powifi:sdkboundary-ok <reason> on the package clause\n" +
		"(whole file) or on the import line (that import).",
	Run: runSDKBoundary,
}

// sdkConsumerModule returns the module prefix when path denotes an SDK
// consumer package — "cmd" or "examples" as the first or second
// segment — and ok=false otherwise.
func sdkConsumerModule(path string) (module string, ok bool) {
	seg := strings.Split(path, "/")
	for i := 0; i < len(seg) && i < 2; i++ {
		if seg[i] == "cmd" || seg[i] == "examples" {
			return strings.Join(seg[:i], "/"), true
		}
	}
	return "", false
}

// internalTo reports whether imp is an internal package of the module
// rooted at prefix ("" means the tree root).
func internalTo(module, imp string) bool {
	rel := imp
	if module != "" {
		if !strings.HasPrefix(imp, module+"/") {
			return false
		}
		rel = imp[len(module)+1:]
	}
	return rel == "internal" || strings.HasPrefix(rel, "internal/") ||
		strings.Contains(rel, "/internal/") || strings.HasSuffix(rel, "/internal")
}

func runSDKBoundary(pass *analysis.Pass) (any, error) {
	module, ok := sdkConsumerModule(pass.Pkg.Path())
	if !ok {
		return nil, nil
	}
	dirs := parseDirectives(pass)
	for _, f := range pass.Files {
		if isTestFile(pass, f.Pos()) {
			continue // test files may reach into internal for fixtures
		}
		if dirs.okAt(pass, f, f.Package, "sdkboundary-ok") {
			continue // whole-file exemption on the package clause
		}
		hasInternalImport := false
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !internalTo(module, path) {
				continue
			}
			hasInternalImport = true
			if dirs.okAt(pass, f, imp.Pos(), "sdkboundary-ok") {
				continue
			}
			pass.Reportf(imp.Pos(),
				"internal import %q in SDK consumer %s: cmd/ and examples/ must stay on the "+
					"public powifi surface (api/powifi.txt)", path, pass.Pkg.Path())
		}
		if hasInternalImport {
			// Uses are implied by the import specs (flagged or
			// deliberately exempted); re-flagging each use would bury
			// the signal.
			continue
		}
		// Belt and braces: catch mentions of internal package-level
		// identifiers that arrive without any internal import spec in
		// this file (nothing syntactic should manage that today, but a
		// future aliasing mechanism could).
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil || obj.Pkg() == nil || obj.Pkg() == pass.Pkg {
				return true
			}
			if _, isPkg := obj.(*types.PkgName); isPkg {
				return true // the qualifier itself; the import spec owns it
			}
			// Package-level declarations only: fields/methods reached by
			// promotion through SDK types are legitimate SDK usage.
			if obj.Parent() == nil || obj.Parent() != obj.Pkg().Scope() {
				return true
			}
			if !internalTo(module, obj.Pkg().Path()) {
				return true
			}
			if dirs.okAt(pass, f, id.Pos(), "sdkboundary-ok") {
				return true
			}
			pass.Reportf(id.Pos(),
				"use of internal identifier %s.%s in SDK consumer %s",
				obj.Pkg().Path(), obj.Name(), pass.Pkg.Path())
			return true
		})
	}
	return nil, nil
}
