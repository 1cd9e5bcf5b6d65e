package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// MergecheckAnalyzer forbids discarding the error results of the
// repo's validated-merge and checkpoint codec calls. Sketch.TryMerge
// exists precisely because a silent mismatched merge corrupts a fleet
// aggregate without failing; discarding its error turns it back into
// the footgun it replaced. The checkpoint encode/decode path has the
// same property: an ignored error there is a resumed run folding
// garbage.
//
// Flagged callees:
//   - any method named TryMerge;
//   - any function or method whose name contains "Checkpoint"
//     (loadCheckpoint, tryLoadCheckpoint, decodeCheckpoint, ...);
//   - methods of the checkpoint writer type (ckWriter).
//
// Discarding means: calling as a bare statement, assigning the error
// to the blank identifier, or launching via go/defer. Escape hatch:
// //powifi:mergecheck-ok <reason>.
var MergecheckAnalyzer = &analysis.Analyzer{
	Name: "mergecheck",
	Doc: "forbid discarding TryMerge and checkpoint encode/decode errors\n\n" +
		"A silently failed merge or checkpoint round-trip corrupts fleet\n" +
		"aggregates; the error results exist to be handled. Escape hatch:\n" +
		"//powifi:mergecheck-ok <reason>.",
	Run: runMergecheck,
}

// mergecheckCallee reports whether the called function is one whose
// error result must be used, returning its display name.
func mergecheckCallee(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !lastResultIsError(sig) {
		return "", false
	}
	name := fn.Name()
	if name == "TryMerge" && sig.Recv() != nil {
		return recvTypeName(sig) + ".TryMerge", true
	}
	if strings.Contains(name, "Checkpoint") {
		return name, true
	}
	if sig.Recv() != nil && recvTypeName(sig) == "ckWriter" {
		return "ckWriter." + name, true
	}
	return "", false
}

func lastResultIsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	t := res.At(res.Len() - 1).Type()
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

func recvTypeName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

func runMergecheck(pass *analysis.Pass) (any, error) {
	dirs := parseDirectives(pass)
	info := pass.TypesInfo

	flag := func(f *ast.File, call *ast.CallExpr, how string) {
		name, ok := mergecheckCallee(info, call)
		if !ok {
			return
		}
		if dirs.okAt(pass, f, call.Pos(), "mergecheck-ok") {
			return
		}
		pass.Reportf(call.Pos(),
			"%s error discarded (%s): a silently failed merge or checkpoint round-trip "+
				"corrupts fleet aggregates — handle the error or annotate "+
				"//powifi:mergecheck-ok <reason>", name, how)
	}

	for _, f := range pass.Files {
		if isTestFile(pass, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					flag(f, call, "result ignored")
				}
			case *ast.GoStmt:
				flag(f, n.Call, "go statement")
			case *ast.DeferStmt:
				flag(f, n.Call, "defer statement")
			case *ast.AssignStmt:
				// Error assigned to blank: the error is the last result.
				if len(n.Rhs) != 1 {
					return true
				}
				call, ok := n.Rhs[0].(*ast.CallExpr)
				if !ok || len(n.Lhs) == 0 {
					return true
				}
				last, ok := n.Lhs[len(n.Lhs)-1].(*ast.Ident)
				if ok && last.Name == "_" {
					flag(f, call, "error assigned to _")
				}
			}
			return true
		})
	}
	return nil, nil
}
