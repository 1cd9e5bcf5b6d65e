package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// MapiterAnalyzer forbids ordering-sensitive map iteration in
// deterministic packages. Go randomizes map iteration order per run,
// so a `range` over a map anywhere on the path to a fleet aggregate is
// the classic worker-invariance killer: the same scenario folds floats
// in a different order and the goldens drift by an ULP.
//
// Two loop shapes are provably order-insensitive and stay legal:
//
//   - key collection: the body is exactly `s = append(s, k)` — the
//     canonical sort-the-keys-first idiom's first half;
//   - map draining: the body is exactly `delete(m, k)`.
//
// Everything else needs either a sorted-key/array-backed restructure or
// //powifi:mapiter-ok <reason> on the range line (or the line above)
// justifying why the fold is commutative.
var MapiterAnalyzer = &analysis.Analyzer{
	Name: "mapiter",
	Doc: "forbid ordering-sensitive `range` over maps in deterministic packages\n\n" +
		"Map iteration order is randomized; any output-affecting fold over it\n" +
		"breaks bit-identical worker invariance. Key-collection\n" +
		"(s = append(s, k)) and drain (delete(m, k)) bodies are recognized as\n" +
		"safe. Escape hatch: //powifi:mapiter-ok <reason>.",
	Run: runMapiter,
}

func runMapiter(pass *analysis.Pass) (any, error) {
	if !isDetPackage(pass.Pkg.Path()) {
		return nil, nil
	}
	dirs := parseDirectives(pass)
	for _, f := range pass.Files {
		if isTestFile(pass, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if safeMapRange(pass, rs) {
				return true
			}
			if dirs.okAt(pass, f, rs.Pos(), "mapiter-ok") {
				return true
			}
			pass.Reportf(rs.Pos(),
				"range over map in deterministic package %s: iteration order is randomized and "+
					"breaks bit-identical worker invariance — sort the keys first, use a fixed "+
					"array, or annotate //powifi:mapiter-ok <reason> for a commutative fold",
				pass.Pkg.Path())
			return true
		})
	}
	return nil, nil
}

// safeMapRange recognizes the two provably order-insensitive bodies:
// single-statement key collection (s = append(s, k)) and map draining
// (delete(m, k)), with k the loop's key variable and no value variable
// in use.
func safeMapRange(pass *analysis.Pass, rs *ast.RangeStmt) bool {
	if rs.Body == nil || len(rs.Body.List) != 1 {
		return false
	}
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	if rs.Value != nil {
		if v, ok := rs.Value.(*ast.Ident); !ok || v.Name != "_" {
			return false
		}
	}
	keyObj := pass.TypesInfo.Defs[key]
	if keyObj == nil {
		// `for k = range m` with an outer k: resolve through Uses.
		keyObj = pass.TypesInfo.Uses[key]
	}
	isKey := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		if !ok || keyObj == nil {
			return false
		}
		return pass.TypesInfo.Uses[id] == keyObj
	}
	switch st := rs.Body.List[0].(type) {
	case *ast.AssignStmt:
		// s = append(s, k)
		if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
			return false
		}
		call, ok := st.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) != 2 || call.Ellipsis.IsValid() {
			return false
		}
		if !isBuiltin(pass, call.Fun, "append") {
			return false
		}
		lhs, ok := st.Lhs[0].(*ast.Ident)
		if !ok {
			return false
		}
		dst, ok := call.Args[0].(*ast.Ident)
		if !ok || dst.Name != lhs.Name {
			return false
		}
		return isKey(call.Args[1])
	case *ast.ExprStmt:
		// delete(m, k)
		call, ok := st.X.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return false
		}
		if !isBuiltin(pass, call.Fun, "delete") {
			return false
		}
		return sameExprText(call.Args[0], rs.X) && isKey(call.Args[1])
	}
	return false
}

// isBuiltin reports whether fun denotes the named predeclared builtin.
func isBuiltin(pass *analysis.Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// sameExprText conservatively compares two expressions structurally:
// identical identifiers or identical selector chains.
func sameExprText(a, b ast.Expr) bool {
	switch ae := a.(type) {
	case *ast.Ident:
		be, ok := b.(*ast.Ident)
		return ok && ae.Name == be.Name
	case *ast.SelectorExpr:
		be, ok := b.(*ast.SelectorExpr)
		return ok && ae.Sel.Name == be.Sel.Name && sameExprText(ae.X, be.X)
	}
	return false
}
