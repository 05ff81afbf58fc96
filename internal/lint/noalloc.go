package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Noalloc is the static complement to TestBatchApplyAllocFree and the
// DESIGN.md zero-allocation policy: a function annotated //repolint:noalloc
// (the ingest apply path, the frame codec, the obs observe paths) may not
// contain the construct classes that force heap allocations on every call:
//
//   - calls into package fmt (Sprintf and friends always allocate),
//   - non-constant string concatenation,
//   - append whose destination escapes the function (a field, a deref, an
//     element of non-local storage) — append into a local or into the
//     caller's buffer via the append-style return idiom is the sanctioned
//     amortized-growth pattern,
//   - implicit or explicit conversion of a non-pointer concrete value to an
//     interface (boxing),
//   - closures that capture variables (the closure context is heap-allocated).
//
// The dynamic test measures allocs/op == 0; this analyzer points at the
// exact expression when a refactor is about to break that, before a
// benchmark run ever sees it. //repolint:allow noalloc suppresses one line
// with a written reason.
var Noalloc = &Analyzer{
	Name: "noalloc",
	Doc:  "forbid allocating constructs in functions annotated //repolint:noalloc",
	Run:  runNoalloc,
}

func runNoalloc(pass *Pass) error {
	for _, f := range pass.SourceFiles() {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if !noallocAnnotated(pass, fn) {
				continue
			}
			checkNoallocBody(pass, fn)
		}
	}
	return nil
}

// noallocAnnotated reports whether fn carries //repolint:noalloc in its doc
// comment or on the line above/of the declaration.
func noallocAnnotated(pass *Pass, fn *ast.FuncDecl) bool {
	if fn.Doc != nil {
		for _, c := range fn.Doc.List {
			if d := parseDirective(c.Pos(), c.Text); d.name == "noalloc" {
				return true
			}
		}
	}
	return pass.HasDirective(fn.Pos(), "noalloc")
}

func checkNoallocBody(pass *Pass, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkClosureCapture(pass, fn, n)
			return false // the literal runs later; its body is its own scope
		case *ast.CallExpr:
			checkNoallocCall(pass, n)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringConcat(info, n) {
				pass.Reportf(n.OpPos, "string concatenation allocates in noalloc function %s", fn.Name.Name)
			}
		case *ast.AssignStmt:
			checkNoallocAssign(pass, fn, n)
		case *ast.ReturnStmt:
			checkNoallocReturn(pass, fn, n)
		}
		return true
	})
}

// checkNoallocCall flags fmt calls, escaping appends in argument position,
// and interface-boxing arguments.
func checkNoallocCall(pass *Pass, call *ast.CallExpr) {
	if fn := calleeFunc(pass, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		sig, _ := fn.Type().(*types.Signature)
		if sig == nil || sig.Recv() == nil {
			pass.Reportf(call.Pos(), "fmt.%s allocates; format off the hot path", fn.Name())
			return
		}
	}
	// Arguments: an append result handed to a callee escapes; a concrete
	// non-pointer handed to an interface parameter is boxed.
	sig := callSignature(pass, call)
	for i, arg := range call.Args {
		if isAppendCall(pass, arg) {
			pass.Reportf(arg.Pos(), "append result passed to a call escapes (allocates); append into a local or the caller's buffer")
		}
		if sig != nil {
			if pt := paramTypeAt(sig, i, call); pt != nil && boxesIntoInterface(pass.TypesInfo, pt, arg) {
				pass.Reportf(arg.Pos(), "non-pointer value boxed into interface argument (allocates)")
			}
		}
	}
}

// callSignature returns the callee signature when the call is a function
// call (not a conversion).
func callSignature(pass *Pass, call *ast.CallExpr) *types.Signature {
	t := pass.TypesInfo.TypeOf(call.Fun)
	if t == nil {
		return nil
	}
	sig, _ := t.Underlying().(*types.Signature)
	return sig
}

// paramTypeAt maps an argument index to the parameter type, unrolling the
// variadic tail.
func paramTypeAt(sig *types.Signature, i int, call *ast.CallExpr) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		if call.Ellipsis.IsValid() {
			return sig.Params().At(n - 1).Type()
		}
		if s, ok := sig.Params().At(n - 1).Type().(*types.Slice); ok {
			return s.Elem()
		}
		return nil
	}
	if i >= n {
		return nil
	}
	return sig.Params().At(i).Type()
}

// boxesIntoInterface reports whether assigning expr to target type boxes a
// concrete non-pointer value into an interface.
func boxesIntoInterface(info *types.Info, target types.Type, expr ast.Expr) bool {
	if _, ok := target.Underlying().(*types.Interface); !ok {
		return false
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.IsNil() {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Signature, *types.Chan, *types.Map:
		// Already an interface, or a pointer-shaped value: stored
		// directly in the interface word, no heap copy of the payload.
		return false
	}
	return true
}

func isStringConcat(info *types.Info, b *ast.BinaryExpr) bool {
	tv, ok := info.Types[b]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.Value != nil {
		return false // folded at compile time
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// isAppendCall reports whether expr is a call of the append builtin.
func isAppendCall(pass *Pass, expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin && id.Name == "append"
}

// checkNoallocAssign flags append results stored into escaping locations
// and interface-boxing assignments.
func checkNoallocAssign(pass *Pass, fn *ast.FuncDecl, as *ast.AssignStmt) {
	for i, rhs := range as.Rhs {
		var lhs ast.Expr
		if len(as.Lhs) == len(as.Rhs) {
			lhs = as.Lhs[i]
		}
		if isAppendCall(pass, rhs) && lhs != nil && !isLocalVar(pass, fn, lhs) {
			pass.Reportf(rhs.Pos(), "append into escaping destination %s (allocates beyond the local buffer)", exprString(lhs))
		}
		if lhs != nil {
			if lt := pass.TypesInfo.TypeOf(lhs); lt != nil && boxesIntoInterface(pass.TypesInfo, lt, rhs) {
				pass.Reportf(rhs.Pos(), "non-pointer value boxed into interface on assignment (allocates)")
			}
		}
	}
}

// checkNoallocReturn allows the append-style idiom `return append(param,
// ...)` (continuing the caller's buffer) and flags returning an append of
// anything else, plus interface-boxing returns.
func checkNoallocReturn(pass *Pass, fn *ast.FuncDecl, ret *ast.ReturnStmt) {
	var results *types.Tuple
	if sig, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
		results = sig.Type().(*types.Signature).Results()
	}
	for i, expr := range ret.Results {
		if call, ok := ast.Unparen(expr).(*ast.CallExpr); ok && isAppendCall(pass, expr) {
			if len(call.Args) == 0 || !isParamVar(pass, fn, call.Args[0]) {
				pass.Reportf(expr.Pos(), "returned append does not continue a caller-owned buffer (allocates)")
			}
		}
		if results != nil && i < results.Len() && len(ret.Results) == results.Len() {
			if boxesIntoInterface(pass.TypesInfo, results.At(i).Type(), expr) {
				pass.Reportf(expr.Pos(), "non-pointer value boxed into interface return (allocates)")
			}
		}
	}
}

// isLocalVar reports whether expr is a bare identifier naming a variable
// declared inside fn (parameters included).
func isLocalVar(pass *Pass, fn *ast.FuncDecl, expr ast.Expr) bool {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.ObjectOf(id)
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	return fn.Pos() <= v.Pos() && v.Pos() <= fn.End()
}

// isParamVar reports whether expr is a bare identifier naming one of fn's
// parameters — the first argument of the sanctioned `return append(dst,
// ...)` idiom.
func isParamVar(pass *Pass, fn *ast.FuncDecl, expr ast.Expr) bool {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok || fn.Type.Params == nil {
		return false
	}
	obj := pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return false
	}
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			if pass.TypesInfo.ObjectOf(name) == obj {
				return true
			}
		}
	}
	return false
}

// checkClosureCapture flags closures that capture variables from the
// enclosing noalloc function: the capture context lives on the heap.
func checkClosureCapture(pass *Pass, fn *ast.FuncDecl, lit *ast.FuncLit) {
	var captured *ast.Ident
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured = declared inside the enclosing function but outside
		// the literal. Package-level variables are direct references,
		// not captures.
		if v.Pos() >= fn.Pos() && v.Pos() <= fn.End() && (v.Pos() < lit.Pos() || v.Pos() > lit.End()) {
			captured = id
			return false
		}
		return true
	})
	if captured != nil {
		pass.Reportf(lit.Pos(), "closure captures %q: the capture context allocates in noalloc function %s",
			captured.Name, fn.Name.Name)
	}
}

// exprString renders a short description of an lvalue for diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	default:
		return "expression"
	}
}
