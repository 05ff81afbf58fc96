package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// WireSize is the taint analyzer behind the "bound before allocate"
// invariant DESIGN.md states for every decoder: an allocation whose size
// derives from untrusted wire or file bytes — decoded lengths, index and
// footer fields, binary.* reads, frame headers — must flow through a
// recognized upper-bound guard first. This is the exact bug class behind
// the crafted-index OOMs fixed after PR 5 (a ~30-byte file declaring a
// 2^50 record count) and the width-overflow guards of PR 8.
//
// The analysis is an intraprocedural forward dataflow over the cfg.go CFG:
//
//	sources     results of encoding/binary reads; integer results of
//	            read*/decode*/parse*/*varint* functions; bytes loaded from
//	            a []byte (frame headers, index entries)
//	sinks       make(T, n) / make(T, n, c); bytes.Buffer.Grow and
//	            strings.Builder.Grow; slices.Grow
//	sanitizers  a branch comparing the value against an upper bound on the
//	            edge where the bound holds (`if n > max { return ErrCorrupt }`
//	            cleanses n on the fall-through edge); x % m, x & mask and
//	            min(x, cap) with an untrusted bound; passing the value to a
//	            valid*/check*/clamp* helper
//
// Cross-function flows are out of scope by design: the repo's decoders
// validate header fields at parse time (parseBlockHeader, ReadBlockIndex),
// so a struct returned by a parse helper is treated as already vetted.
// //repolint:allow wiresize suppresses one line with a written reason.
var WireSize = &Analyzer{
	Name: "wiresize",
	Doc:  "allocations sized from untrusted wire/file bytes must pass an upper-bound guard first",
	Run:  runWireSize,
}

// wireSizePkgs is the scope: every package that decodes attacker-supplied
// bytes — the trace containers, the LZ codec, the ingest wire protocol and
// its checkpoint files, and the pcap reader.
var wireSizePkgs = map[string]bool{
	"netenergy/internal/trace":             true,
	"netenergy/internal/lz":                true,
	"netenergy/internal/ingest":            true,
	"netenergy/internal/ingest/checkpoint": true,
	"netenergy/internal/pcapio":            true,
}

func runWireSize(pass *Pass) error {
	if !wireSizePkgs[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.SourceFiles() {
		funcBodies(f, func(body *ast.BlockStmt, decl *ast.FuncDecl, lit *ast.FuncLit) {
			if !hasSizingSink(body) {
				return // no make/Grow: nothing to flow taint into
			}
			an := &wireSizeFlow{pass: pass, reported: map[token.Pos]bool{}}
			runFlow(buildCFG(body), an, newTaintState())
		})
	}
	return nil
}

// hasSizingSink cheaply pre-screens a body for a make call or a Grow
// method before paying for CFG construction and the fixpoint solve.
func hasSizingSink(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if n.Name == "make" {
				found = true
			}
		case *ast.SelectorExpr:
			if n.Sel.Name == "Grow" {
				found = true
			}
		}
		return !found
	})
	return found
}

// Taint lattice: unknown (not wire-derived) < bounded (wire-derived but
// guarded) < tainted (wire-derived, unguarded).
const (
	taintUnknown = iota
	taintBounded
	taintTainted
)

// taintState maps trackable references (locals, parameters, struct fields
// written in this function) to their taint.
type taintState struct {
	taint map[types.Object]int
}

func newTaintState() *taintState { return &taintState{taint: map[types.Object]int{}} }

func (s *taintState) clone() flowState {
	c := newTaintState()
	for k, v := range s.taint {
		c.taint[k] = v
	}
	return c
}

// join is per-object max: tainted on any path wins; bounded beats unknown
// (a value guarded on one path and non-wire on the other is safe).
func (s *taintState) join(other flowState) bool {
	o := other.(*taintState)
	changed := false
	for k, v := range o.taint {
		if v > s.taint[k] {
			s.taint[k] = v
			changed = true
		}
	}
	return changed
}

// wireSizeFlow implements flowAnalysis for one function body.
type wireSizeFlow struct {
	pass     *Pass
	reported map[token.Pos]bool
}

func (w *wireSizeFlow) transfer(n ast.Node, fst flowState, report bool) {
	st := fst.(*taintState)
	if report {
		w.findSinks(n, st)
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		w.assign(n, st)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						w.set(st, name, w.taintOf(vs.Values[i], st))
					}
				}
			}
		}
	case *ast.RangeStmt:
		w.rangeAssign(n, st)
	}
	// A call into a validation helper vouches for its integer arguments:
	// the repo's pattern is validate-then-use, and the helper's own body is
	// analyzed when it lives in a scoped package.
	w.applySanitizerCalls(n, st)
}

// assign updates the state for one assignment statement.
func (w *wireSizeFlow) assign(as *ast.AssignStmt, st *taintState) {
	if len(as.Lhs) > 1 && len(as.Rhs) == 1 {
		// Multi-value: x, y, err := call(). Integer results of a source
		// call are tainted; everything else resets to unknown.
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		src := ok && w.isSourceCall(call)
		var results *types.Tuple
		if ok {
			if sig, sok := w.pass.TypesInfo.Types[call.Fun].Type.(*types.Signature); sok {
				results = sig.Results()
			}
		}
		for i, lhs := range as.Lhs {
			t := taintUnknown
			if src && results != nil && i < results.Len() && isIntegerType(results.At(i).Type()) {
				t = taintTainted
			}
			w.set(st, lhs, t)
		}
		return
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		t := w.taintOf(as.Rhs[i], st)
		if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
			// Compound assignment: x op= rhs behaves like x = x op rhs.
			if cur := w.refTaint(lhs, st); cur > t {
				t = cur
			}
		}
		w.set(st, lhs, t)
	}
}

// rangeAssign taints the value variable of `for _, b := range buf` when buf
// is a byte source, and the key of `range n` when n is tainted (Go 1.22
// integer ranges).
func (w *wireSizeFlow) rangeAssign(r *ast.RangeStmt, st *taintState) {
	xt := w.pass.TypesInfo.Types[r.X].Type
	if r.Key != nil {
		t := taintUnknown
		if xt != nil && isIntegerType(xt) {
			t = w.taintOf(r.X, st)
		}
		w.set(st, r.Key, t)
	}
	if r.Value != nil {
		t := taintUnknown
		if isByteSeqType(xt) {
			t = taintTainted
		}
		w.set(st, r.Value, t)
	}
}

// set records the taint of an assignable reference (ident or field
// selector); other shapes (index expressions, derefs) are not tracked.
func (w *wireSizeFlow) set(st *taintState, lhs ast.Expr, t int) {
	obj := w.refObject(lhs)
	if obj == nil {
		return
	}
	if t == taintUnknown {
		delete(st.taint, obj)
		return
	}
	st.taint[obj] = t
}

// refObject resolves an ident or field selector to its object.
func (w *wireSizeFlow) refObject(e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return nil
		}
		return w.pass.TypesInfo.ObjectOf(e)
	case *ast.SelectorExpr:
		obj := w.pass.TypesInfo.ObjectOf(e.Sel)
		if _, ok := obj.(*types.Var); ok {
			return obj
		}
	}
	return nil
}

func (w *wireSizeFlow) refTaint(e ast.Expr, st *taintState) int {
	if obj := w.refObject(e); obj != nil {
		return st.taint[obj]
	}
	return taintUnknown
}

// taintOf computes the taint of an expression under st.
func (w *wireSizeFlow) taintOf(e ast.Expr, st *taintState) int {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := w.pass.TypesInfo.ObjectOf(e)
		if obj == nil {
			return taintUnknown
		}
		if _, isConst := obj.(*types.Const); isConst {
			return taintUnknown
		}
		return st.taint[obj]
	case *ast.SelectorExpr:
		if obj := w.refObject(e); obj != nil {
			return st.taint[obj]
		}
		return taintUnknown
	case *ast.BinaryExpr:
		lt, rt := w.taintOf(e.X, st), w.taintOf(e.Y, st)
		switch e.Op {
		case token.REM, token.AND:
			// x % m and x & mask are bounded by an untainted m/mask.
			if lt == taintTainted && rt != taintTainted {
				return taintBounded
			}
			if rt == taintTainted && lt != taintTainted {
				return taintBounded
			}
		case token.LAND, token.LOR, token.EQL, token.NEQ,
			token.LSS, token.LEQ, token.GTR, token.GEQ:
			return taintUnknown // boolean result
		}
		return maxTaint(lt, rt)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			return taintUnknown // channel receives carry internal values
		}
		return w.taintOf(e.X, st)
	case *ast.IndexExpr:
		if isByteSeqType(w.pass.TypesInfo.Types[e.X].Type) {
			return taintTainted // a raw wire/file byte
		}
		return taintUnknown
	case *ast.CallExpr:
		return w.callTaint(e, st)
	}
	return taintUnknown
}

// callTaint classifies a call expression in value position.
func (w *wireSizeFlow) callTaint(call *ast.CallExpr, st *taintState) int {
	// Conversions propagate the operand's taint: int(n), uint64(n), ...
	if tv, ok := w.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return w.taintOf(call.Args[0], st)
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := w.pass.TypesInfo.ObjectOf(id).(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap":
				return taintUnknown
			case "min":
				// min(tainted, untainted-cap) is the sanctioned clamp.
				t := taintTainted
				for _, a := range call.Args {
					if at := w.taintOf(a, st); at < t {
						t = at
					}
				}
				if t == taintUnknown {
					return taintBounded
				}
				return t
			case "max":
				t := taintUnknown
				for _, a := range call.Args {
					t = maxTaint(t, w.taintOf(a, st))
				}
				return t
			}
			return taintUnknown
		}
	}
	if w.isSourceCall(call) {
		if tv, ok := w.pass.TypesInfo.Types[call]; ok && tv.Type != nil && isIntegerType(tv.Type) {
			return taintTainted
		}
	}
	return taintUnknown
}

// isSourceCall reports whether call reads untrusted wire/file values: any
// encoding/binary decoder, or a function from the read*/decode*/parse*/
// *varint* families (by name, so closures like readU() count too).
func (w *wireSizeFlow) isSourceCall(call *ast.CallExpr) bool {
	if fn := calleeFunc(w.pass, call); fn != nil {
		if fn.Pkg() != nil && fn.Pkg().Path() == "encoding/binary" {
			return true
		}
		return isWireReadName(fn.Name())
	}
	// Calls through function-typed variables (closures over a cursor).
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return isWireReadName(fun.Name)
	case *ast.SelectorExpr:
		return isWireReadName(fun.Sel.Name)
	}
	return false
}

// isWireReadName matches the naming families the repo's decoders use for
// functions that surface wire-controlled integers.
func isWireReadName(name string) bool {
	lower := strings.ToLower(name)
	if strings.HasPrefix(lower, "read") {
		return true
	}
	for _, frag := range []string{"varint", "decode", "parse"} {
		if strings.Contains(lower, frag) {
			return true
		}
	}
	return false
}

// isSanitizerName matches validation helpers that vouch for their
// arguments.
func isSanitizerName(name string) bool {
	lower := strings.ToLower(name)
	for _, frag := range []string{"valid", "check", "clamp", "bound"} {
		if strings.Contains(lower, frag) {
			return true
		}
	}
	return false
}

// applySanitizerCalls downgrades tainted arguments of valid*/check*
// helpers to bounded.
func (w *wireSizeFlow) applySanitizerCalls(n ast.Node, st *taintState) {
	flowScan(n, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		name := ""
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		if !isSanitizerName(name) {
			return
		}
		for _, a := range call.Args {
			if obj := w.refObject(a); obj != nil && st.taint[obj] == taintTainted {
				st.taint[obj] = taintBounded
			}
		}
	})
}

// refine learns bounds from branch conditions, following the short-circuit
// structure: on the false edge of `a || b` both disjuncts are false; on the
// true edge of `a && b` both conjuncts hold. Conjuncts are applied left to
// right so a bound established earlier in the condition (ul) untaints a
// later comparison's bound expression (rc > ul/2+1).
func (w *wireSizeFlow) refine(cond ast.Expr, val bool, fst flowState) {
	st := fst.(*taintState)
	w.refineCond(cond, val, st)
}

func (w *wireSizeFlow) refineCond(cond ast.Expr, val bool, st *taintState) {
	switch e := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			w.refineCond(e.X, !val, st)
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			if val {
				w.refineCond(e.X, true, st)
				w.refineCond(e.Y, true, st)
			}
		case token.LOR:
			if !val {
				w.refineCond(e.X, false, st)
				w.refineCond(e.Y, false, st)
			}
		case token.LSS, token.LEQ:
			// x < B (true) bounds x; B < x (false) bounds x.
			if val {
				w.bound(e.X, e.Y, st)
			} else {
				w.bound(e.Y, e.X, st)
			}
		case token.GTR, token.GEQ:
			// x > B (false) bounds x; B > x (true) bounds x.
			if val {
				w.bound(e.Y, e.X, st)
			} else {
				w.bound(e.X, e.Y, st)
			}
		case token.EQL:
			if val {
				w.bound(e.X, e.Y, st)
				w.bound(e.Y, e.X, st)
			}
		case token.NEQ:
			if !val {
				w.bound(e.X, e.Y, st)
				w.bound(e.Y, e.X, st)
			}
		}
	}
}

// bound marks x as guarded when the comparison's other side is itself
// untainted. Conversions around the guarded value are unwrapped so
// `uint64(n) > limit` guards n.
func (w *wireSizeFlow) bound(x, boundExpr ast.Expr, st *taintState) {
	if w.taintOf(boundExpr, st) == taintTainted {
		return // comparing against another wire value proves nothing
	}
	x = ast.Unparen(x)
	for {
		call, ok := x.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			break
		}
		if tv, ok := w.pass.TypesInfo.Types[call.Fun]; !ok || !tv.IsType() {
			break
		}
		x = ast.Unparen(call.Args[0])
	}
	if obj := w.refObject(x); obj != nil && st.taint[obj] == taintTainted {
		st.taint[obj] = taintBounded
	}
}

// findSinks reports allocations inside n sized by a tainted expression.
func (w *wireSizeFlow) findSinks(n ast.Node, st *taintState) {
	flowScan(n, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := w.pass.TypesInfo.ObjectOf(id).(*types.Builtin); ok && b.Name() == "make" {
				for _, arg := range call.Args[1:] {
					w.reportTainted(arg, "make", st)
				}
				return
			}
		}
		if fn := calleeFunc(w.pass, call); fn != nil && fn.Name() == "Grow" && fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "bytes", "strings", "slices":
				if len(call.Args) > 0 {
					w.reportTainted(call.Args[len(call.Args)-1], fn.Pkg().Name()+".Grow", st)
				}
			}
		}
	})
}

func (w *wireSizeFlow) reportTainted(arg ast.Expr, sink string, st *taintState) {
	if w.taintOf(arg, st) != taintTainted {
		return
	}
	if w.reported[arg.Pos()] {
		return
	}
	w.reported[arg.Pos()] = true
	w.pass.Reportf(arg.Pos(),
		"%s sized by %s, which derives from untrusted wire/file bytes with no upper-bound guard on this path",
		sink, types.ExprString(arg))
}

func maxTaint(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func isIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isByteSeqType reports []byte, [N]byte or string.
func isByteSeqType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		b, ok := u.Elem().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Uint8
	case *types.Array:
		b, ok := u.Elem().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Uint8
	case *types.Basic:
		return u.Info()&types.IsString != 0
	}
	return false
}

// inspectNoFuncLit walks n without descending into nested function
// literals — those are separate analysis units with their own CFGs.
func inspectNoFuncLit(n ast.Node, fn func(ast.Node)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// flowScan visits the expressions a CFG node evaluates itself, skipping
// sub-statements the CFG re-emits in their own blocks (select clause
// bodies, range bodies) so they are not scanned twice under the wrong
// state.
func flowScan(n ast.Node, fn func(ast.Node)) {
	switch n := n.(type) {
	case *ast.SelectStmt:
		return // comm statements and bodies live in their clause blocks
	case *ast.RangeStmt:
		inspectNoFuncLit(n.X, fn)
		return
	}
	inspectNoFuncLit(n, fn)
}
