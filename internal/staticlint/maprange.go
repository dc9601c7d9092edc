package staticlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// mapRangeOrderDependence classifies a range statement: "" when the
// loop's effect cannot depend on map iteration order, otherwise a
// short kind tag describing why it can.
//
// The classification is a deliberately conservative syntactic
// analysis of the loop body:
//
//   - writes through a map index are order-independent (last write per
//     key wins regardless of visit order);
//   - compound integer accumulation (+=, |=, ^=, &=, min/max guards
//     expressed as conditional assignment of a constant) commutes;
//   - append into a variable that outlives the loop is order-DEPENDENT
//     unless the enclosing function sorts after the loop (the
//     collect-keys-then-sort idiom), kind "append-no-sort";
//   - emitting bytes from the body (Write*/Encode*/Print*/Fprint*
//     calls, or any method on bytes.Buffer, strings.Builder,
//     bufio.Writer or json.Encoder) is order-dependent, kind "encode";
//   - float accumulation is order-dependent because float addition
//     does not associate, kind "float-accum";
//   - a return or channel send that references the loop variables is
//     first-key-wins, kind "order-sensitive";
//   - plain assignment of a loop-derived value to a variable that
//     outlives the loop is last-key-wins, kind "order-sensitive".
//
// Anything the analysis cannot see (the loop body handing loop
// variables to an arbitrary function that stores them) is out of
// scope; //lint:allow exists for the true positives it cannot prove
// and the gate's fixtures pin the cases it must catch.
func mapRangeOrderDependence(info *types.Info, enclosing *ast.FuncDecl, rng *ast.RangeStmt) string {
	tv, ok := info.Types[rng.X]
	if !ok {
		return ""
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return ""
	}
	loopVars := rangeLoopVars(info, rng)

	kind := ""
	note := func(k string) {
		// Keep the most specific verdict: encode/float-accum/
		// order-sensitive beat append-no-sort.
		if kind == "" || kind == "append-no-sort" {
			kind = k
		}
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			classifyAssign(info, rng, loopVars, n, note)
		case *ast.CallExpr:
			if isEmitCall(info, n) {
				note("encode")
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if usesAny(info, res, loopVars) {
					note("order-sensitive")
				}
			}
		case *ast.SendStmt:
			note("order-sensitive")
		}
		return true
	})
	if kind == "append-no-sort" && sortsAfter(info, enclosing, rng.End()) {
		return ""
	}
	return kind
}

// rangeLoopVars collects the key/value variable objects of the range.
func rangeLoopVars(info *types.Info, rng *ast.RangeStmt) map[types.Object]bool {
	vars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				vars[obj] = true
			} else if obj := info.Uses[id]; obj != nil {
				vars[obj] = true
			}
		}
	}
	return vars
}

// classifyAssign judges one assignment inside the loop body.
func classifyAssign(info *types.Info, rng *ast.RangeStmt, loopVars map[types.Object]bool, as *ast.AssignStmt, note func(string)) {
	for i, lhs := range as.Lhs {
		if _, isIndex := lhs.(*ast.IndexExpr); isIndex {
			continue // keyed write: order-independent
		}
		obj := assignTarget(info, lhs)
		if obj == nil || obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
			continue // loop-local temporary
		}
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			rhs = as.Rhs[0]
		}
		if rhs != nil && isAppendCall(rhs) {
			note("append-no-sort")
			continue
		}
		if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
			// Compound assignment: commutative on integers, not on
			// floats. The lvalue's own type decides, so x.f += v and
			// *p += v count by the field's and the pointee's type.
			if t := info.TypeOf(lhs); t != nil && isFloat(t) {
				note("float-accum")
			}
			continue
		}
		// Plain assignment to an outer variable: harmless when the
		// value is loop-invariant (e.g. a constant flag), last-key-wins
		// when it involves the loop variables.
		if rhs != nil && (usesAny(info, rhs, loopVars) || info.Types[rhs].Value == nil && !loopInvariant(info, rhs, rng)) {
			note("order-sensitive")
		}
	}
}

// assignTarget resolves the variable an lvalue writes to, or nil for
// selectors/stars whose base the analysis does not track. A selector
// write (x.f = v) is attributed to the base variable x.
func assignTarget(info *types.Info, lhs ast.Expr) types.Object {
	for {
		switch e := lhs.(type) {
		case *ast.Ident:
			if obj := info.Defs[e]; obj != nil {
				return obj
			}
			return info.Uses[e]
		case *ast.SelectorExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.ParenExpr:
			lhs = e.X
		default:
			return nil
		}
	}
}

// loopInvariant reports whether the expression references nothing
// declared inside the range statement.
func loopInvariant(info *types.Info, e ast.Expr, rng *ast.RangeStmt) bool {
	invariant := true
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
				invariant = false
			}
		}
		return invariant
	})
	return invariant
}

// usesAny reports whether the expression references any of the given
// objects.
func usesAny(info *types.Info, e ast.Expr, objs map[types.Object]bool) bool {
	used := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[info.Uses[id]] {
			used = true
		}
		return !used
	})
	return used
}

func isAppendCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "append"
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// emitReceiverTypes are the concrete output-building types whose
// methods make a loop body an emitter.
var emitReceiverTypes = map[string]bool{
	"bytes.Buffer":    true,
	"strings.Builder": true,
	"bufio.Writer":    true,
	"json.Encoder":    true,
}

// isEmitCall reports whether a call writes to an output stream or
// encoder: a method on one of the emit receiver types, or any
// function whose name starts with Write, Encode, Print, Fprint or
// Marshal.
func isEmitCall(info *types.Info, call *ast.CallExpr) bool {
	var name string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
				t := sig.Recv().Type()
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
					key := shortPkg(named.Obj().Pkg().Path()) + "." + named.Obj().Name()
					if emitReceiverTypes[key] {
						return true
					}
				}
			}
		}
	default:
		return false
	}
	for _, prefix := range []string{"Write", "Encode", "Print", "Fprint", "Marshal"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

func shortPkg(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// sortsAfter reports whether the function calls into package sort or a
// slices.Sort* helper at a position after pos — the second half of the
// collect-keys-then-sort idiom.
func sortsAfter(info *types.Info, fd *ast.FuncDecl, pos token.Pos) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if f, ok := info.Uses[sel.Sel].(*types.Func); ok && f.Pkg() != nil {
				p := f.Pkg().Path()
				if p == "sort" || (p == "slices" && strings.HasPrefix(f.Name(), "Sort")) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
