package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// NoallocAnalyzer checks functions annotated //powifi:noalloc (in their
// doc comment) for allocation-prone constructs. The repo's hot paths —
// the pooled sampler kernel, the batched fleet loop, the nil-recorder/
// nil-counter instrumentation shims — are pinned to 0–5 allocs/bin by
// AllocsPerRun tests; this analyzer catches the classic regressions at
// compile time instead of at the next benchmark run:
//
//   - &T{...} composite literals (escape to the heap on any interesting
//     use) and new(T)/make(...);
//   - closures that capture variables (the closure header allocates);
//   - fmt.* calls (interface boxing plus scan state);
//   - non-constant string concatenation;
//   - interface boxing of non-pointer-shaped values (call arguments,
//     assignments, returns, conversions);
//   - string<->[]byte/[]rune conversions;
//   - go statements.
//
// Deliberately NOT flagged: append (growing into pre-sized backing
// arrays is the pooled idiom — the AllocsPerRun pins own the
// steady-state budget), defer (open-coded since Go 1.13), and plain
// value composite literals (stack-allocated).
var NoallocAnalyzer = &analysis.Analyzer{
	Name: "noalloc",
	Doc: "reject allocation-prone constructs in //powifi:noalloc functions\n\n" +
		"Annotate a hot function's doc comment with //powifi:noalloc to have\n" +
		"escaping composite literals, capturing closures, fmt calls, string\n" +
		"concatenation, interface boxing, make/new and go statements rejected\n" +
		"at lint time. The runtime AllocsPerRun pins remain the ground truth.",
	Run: runNoalloc,
}

const noallocDirective = "//powifi:noalloc"

// isNoallocFunc reports whether the function declaration carries the
// //powifi:noalloc annotation in its doc comment.
func isNoallocFunc(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == noallocDirective || strings.HasPrefix(c.Text, noallocDirective+" ") {
			return true
		}
	}
	return false
}

func runNoalloc(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		if isTestFile(pass, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isNoallocFunc(fd) {
				continue
			}
			checkNoalloc(pass, fd)
		}
	}
	return nil, nil
}

func checkNoalloc(pass *analysis.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	report := func(pos token.Pos, what string) {
		pass.Reportf(pos, "%s in //powifi:noalloc function %s", what, name)
	}
	info := pass.TypesInfo

	// fnSig is the annotated function's own signature (for return-value
	// boxing checks). Nested func lits are flagged wholesale when they
	// capture, so their returns are not separately tracked.
	var fnSig *types.Signature
	if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
		fnSig = obj.Type().(*types.Signature)
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					report(n.Pos(), "escaping composite literal (&T{...})")
				}
			}
		case *ast.FuncLit:
			if capturesVariables(pass, fd, n) {
				report(n.Pos(), "closure capturing variables")
			}
		case *ast.GoStmt:
			report(n.Pos(), "go statement")
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isNonConstString(info, n) {
				report(n.Pos(), "string concatenation")
			}
		case *ast.AssignStmt:
			checkNoallocAssign(pass, n, report)
		case *ast.ValueSpec:
			checkNoallocValueSpec(pass, n, report)
		case *ast.ReturnStmt:
			if fnSig != nil {
				checkNoallocReturn(pass, n, fnSig, report)
			}
		case *ast.CallExpr:
			checkNoallocCall(pass, n, report)
		}
		return true
	})
}

// capturesVariables reports whether the func literal references a
// variable declared in the enclosing function but outside the literal.
func capturesVariables(pass *analysis.Pass, fd *ast.FuncDecl, fl *ast.FuncLit) bool {
	captured := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		obj := pass.TypesInfo.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Declared inside the enclosing function but before/outside the
		// literal => captured. Package-level vars don't count (static).
		if v.Pos() >= fd.Pos() && v.Pos() < fd.End() &&
			!(v.Pos() >= fl.Pos() && v.Pos() < fl.End()) {
			captured = true
		}
		return true
	})
	return captured
}

func isNonConstString(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value != nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// pointerShaped reports whether values of t fit in an interface word
// without allocating: pointers, channels, maps, funcs, unsafe.Pointer.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil
	}
	return false
}

// boxes reports whether assigning a value of type src to a location of
// type dst boxes a non-pointer-shaped value into an interface.
func boxes(src, dst types.Type) bool {
	if src == nil || dst == nil {
		return false
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return false
	}
	if _, ok := src.Underlying().(*types.Interface); ok {
		return false // interface-to-interface copies the word pair
	}
	return !pointerShaped(src)
}

func exprBoxes(info *types.Info, e ast.Expr, dst types.Type) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	if tv.IsNil() {
		return false
	}
	return boxes(tv.Type, dst)
}

func checkNoallocAssign(pass *analysis.Pass, n *ast.AssignStmt, report func(token.Pos, string)) {
	info := pass.TypesInfo
	if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
		if tv, ok := info.Types[n.Lhs[0]]; ok {
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				report(n.Pos(), "string concatenation")
			}
		}
	}
	if n.Tok != token.ASSIGN || len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, lhs := range n.Lhs {
		ltv, ok := info.Types[lhs]
		if !ok {
			continue
		}
		if exprBoxes(info, n.Rhs[i], ltv.Type) {
			report(n.Rhs[i].Pos(), "interface boxing of non-pointer value (assignment)")
		}
	}
}

func checkNoallocValueSpec(pass *analysis.Pass, n *ast.ValueSpec, report func(token.Pos, string)) {
	if n.Type == nil || len(n.Values) == 0 {
		return
	}
	info := pass.TypesInfo
	dtv, ok := info.Types[n.Type]
	if !ok {
		return
	}
	for _, v := range n.Values {
		if exprBoxes(info, v, dtv.Type) {
			report(v.Pos(), "interface boxing of non-pointer value (var declaration)")
		}
	}
}

func checkNoallocReturn(pass *analysis.Pass, n *ast.ReturnStmt, sig *types.Signature, report func(token.Pos, string)) {
	res := sig.Results()
	if res.Len() != len(n.Results) {
		return // naked return or single multi-value call
	}
	for i, e := range n.Results {
		if exprBoxes(pass.TypesInfo, e, res.At(i).Type()) {
			report(e.Pos(), "interface boxing of non-pointer value (return)")
		}
	}
}

func checkNoallocCall(pass *analysis.Pass, call *ast.CallExpr, report func(token.Pos, string)) {
	info := pass.TypesInfo

	// Conversions: T(x) where T is a type.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		dst := tv.Type
		if len(call.Args) == 1 {
			src := info.Types[call.Args[0]]
			if exprBoxes(info, call.Args[0], dst) {
				report(call.Pos(), "interface boxing of non-pointer value (conversion)")
			}
			if isStringBytesConv(src.Type, dst) {
				report(call.Pos(), "string<->[]byte/[]rune conversion")
			}
		}
		return
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := info.Uses[id].(*types.Builtin); isB {
			switch id.Name {
			case "new":
				report(call.Pos(), "new(T)")
			case "make":
				report(call.Pos(), "make(...)")
			}
			return
		}
	}

	// fmt.* calls.
	if callee := calleeFunc(info, call); callee != nil &&
		callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		report(call.Pos(), "fmt."+callee.Name()+" call")
		return
	}

	// Interface-typed parameters boxing concrete arguments.
	tv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if exprBoxes(info, arg, pt) {
			report(arg.Pos(), "interface boxing of non-pointer value (call argument)")
		}
	}
}

// isStringBytesConv reports string <-> []byte/[]rune conversions (both
// directions copy).
func isStringBytesConv(src, dst types.Type) bool {
	if src == nil || dst == nil {
		return false
	}
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 ||
			b.Kind() == types.Rune || b.Kind() == types.Int32)
	}
	return (isStr(src) && isByteOrRuneSlice(dst)) || (isByteOrRuneSlice(src) && isStr(dst))
}

// calleeFunc resolves the called function object, through selectors and
// parens; nil for builtins, conversions and indirect calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}
