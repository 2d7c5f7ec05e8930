package lifecycle

import (
	"go/ast"
	"go/token"
	"go/types"

	"hypermodel/internal/analysis"
)

// Borrowed slices. btree.Tree.View, objstore.Store.View and
// objstore.Store.ViewBatch lend their callback a []byte that aliases a
// pinned page; it is valid only until the callback returns. Inside a
// callback literal the check follows the borrowed parameter and the
// locals that alias it (re-slices, non-string conversions, composite
// literals holding it, append results growing it) and flags every way
// such a value outlives the call:
//
//   - stored into a field, element, pointer target, or a variable the
//     callback captured or a global;
//   - returned (from the callback or a literal nested in it);
//   - sent on a channel;
//   - kept by an append as an element (append(dst, b) — the spread
//     form append(dst, b...) copies the bytes and is fine).
//
// Passing the slice to a function is a loan, not an escape: callees
// are not followed (the check is intraprocedural), which keeps parsers
// like parseView(data) legal.

const (
	btreePath    = "hypermodel/internal/btree"
	objstorePath = "hypermodel/internal/objstore"
)

// borrowingCallee reports the index of the callback argument and of
// the borrowed parameter within it when call lends a page slice.
func (a *analyzer) borrowingCallee(call *ast.CallExpr) (name string, cbArg, param int, ok bool) {
	fn := analysis.Callee(a.pass.TypesInfo, call)
	if fn == nil {
		return "", 0, 0, false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", 0, 0, false
	}
	recv := sig.Recv().Type()
	if p, isPtr := recv.(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	n, isNamed := recv.(*types.Named)
	if !isNamed {
		return "", 0, 0, false
	}
	switch {
	case namedIn(n, "Tree", btreePath) && fn.Name() == "View":
		return "Tree.View", 1, 0, true
	case namedIn(n, "Store", objstorePath) && fn.Name() == "View":
		return "Store.View", 2, 0, true
	case namedIn(n, "Store", objstorePath) && fn.Name() == "ViewBatch":
		return "Store.ViewBatch", 2, 1, true
	}
	return "", 0, 0, false
}

// checkBorrows inspects every borrowing call in the file.
func (a *analyzer) checkBorrows(file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		name, cbArg, param, ok := a.borrowingCallee(call)
		if !ok || cbArg >= len(call.Args) {
			return true
		}
		lit, isLit := ast.Unparen(call.Args[cbArg]).(*ast.FuncLit)
		if !isLit {
			return true
		}
		var params []*ast.Ident
		for _, f := range lit.Type.Params.List {
			params = append(params, f.Names...)
		}
		if param >= len(params) || params[param].Name == "_" {
			return true
		}
		v, isVar := a.pass.TypesInfo.Defs[params[param]].(*types.Var)
		if !isVar {
			return true
		}
		b := &borrowCheck{a: a, lit: lit, callee: name, alias: map[*types.Var]bool{v: true}}
		b.walk()
		return true
	})
}

type borrowCheck struct {
	a      *analyzer
	lit    *ast.FuncLit
	callee string
	alias  map[*types.Var]bool
}

// local reports whether v is declared inside the callback literal.
func (b *borrowCheck) local(v *types.Var) bool {
	return v.Pos() >= b.lit.Pos() && v.Pos() < b.lit.End()
}

// aliases reports whether evaluating e yields a value sharing the
// borrowed bytes.
func (b *borrowCheck) aliases(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, ok := b.a.pass.TypesInfo.ObjectOf(e).(*types.Var)
		return ok && b.alias[v]
	case *ast.SliceExpr:
		return b.aliases(e.X)
	case *ast.UnaryExpr:
		return e.Op == token.AND && b.aliases(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, isKV := el.(*ast.KeyValueExpr); isKV {
				el = kv.Value
			}
			if b.aliases(el) {
				return true
			}
		}
	case *ast.CallExpr:
		info := b.a.pass.TypesInfo
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
			// A conversion shares the bytes unless it makes a string.
			if basic, isBasic := tv.Type.Underlying().(*types.Basic); isBasic && basic.Info()&types.IsString != 0 {
				return false
			}
			return len(e.Args) == 1 && b.aliases(e.Args[0])
		}
		if isBuiltin(info, e, "append") && len(e.Args) > 0 {
			return b.aliases(e.Args[0]) // the result may reuse the first argument's array
		}
	}
	return false
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	_, isB := info.ObjectOf(id).(*types.Builtin)
	return isB && id.Name == name
}

func (b *borrowCheck) report(pos token.Pos, how string) {
	b.a.pass.Reportf(pos,
		"borrowed page slice from %s %s: it is valid only until the callback returns; copy it (append([]byte(nil), b...))",
		b.callee, how)
}

// walk runs to a fixpoint over the callback body: alias sets grow as
// locals are bound to aliasing values, and each escape is reported
// once.
func (b *borrowCheck) walk() {
	reported := map[token.Pos]bool{}
	report := func(pos token.Pos, how string) {
		if !reported[pos] {
			reported[pos] = true
			b.report(pos, how)
		}
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(b.lit.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if len(n.Lhs) != len(n.Rhs) || !b.aliases(rhs) {
						continue
					}
					switch lhs := ast.Unparen(n.Lhs[i]).(type) {
					case *ast.Ident:
						v, ok := b.a.pass.TypesInfo.ObjectOf(lhs).(*types.Var)
						switch {
						case !ok || lhs.Name == "_":
						case b.local(v):
							if !b.alias[v] {
								b.alias[v] = true
								changed = true
							}
						default:
							report(n.Pos(), "is stored into captured or global variable "+lhs.Name)
						}
					case *ast.SelectorExpr:
						report(n.Pos(), "is stored into a field")
					case *ast.IndexExpr:
						report(n.Pos(), "is stored into an element")
					default:
						report(n.Pos(), "is stored through a pointer")
					}
				}
			case *ast.ValueSpec:
				for i, val := range n.Values {
					if i < len(n.Names) && b.aliases(val) {
						if v, ok := b.a.pass.TypesInfo.Defs[n.Names[i]].(*types.Var); ok && !b.alias[v] {
							b.alias[v] = true
							changed = true
						}
					}
				}
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					if b.aliases(res) {
						report(res.Pos(), "is returned")
					}
				}
			case *ast.SendStmt:
				if b.aliases(n.Value) {
					report(n.Pos(), "is sent on a channel")
				}
			case *ast.CallExpr:
				if isBuiltin(b.a.pass.TypesInfo, n, "append") && !n.Ellipsis.IsValid() {
					for _, arg := range n.Args[1:] {
						if b.aliases(arg) {
							report(arg.Pos(), "is kept by append as an element")
						}
					}
				}
			}
			return true
		})
	}
}
