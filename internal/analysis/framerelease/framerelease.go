// Package framerelease checks that every pinned buffer frame obtained
// from buffer.Pool.Get or Pool.Insert is released or handed off.
//
// Invariant: Get and Insert return the frame pinned. A pin that is
// never dropped makes the frame ineligible for eviction forever,
// silently shrinking the pool's usable capacity — which skews exactly
// the cold/warm hit-rate distinction the benchmark measures, without
// failing any functional test.
//
// The check is intraprocedural and flags the omission pattern: a
// frame-producing call whose result is discarded, assigned to the
// blank identifier, or bound to a variable that is only ever read
// (field access, nil comparison). A frame that escapes the function —
// returned, stored in a composite literal or another variable, or
// passed to any call (Pool.Release, but also constructors that take
// over the pin) — is treated as handed off to an owner responsible
// for the release. That keeps the analyzer free of false positives at
// the cost of not tracking the handoff; the escape target's own
// callers are checked the same way.
package framerelease

import (
	"go/ast"
	"go/types"

	"hypermodel/internal/analysis"
)

// poolPath is the package whose Get/Insert methods pin frames.
const poolPath = "hypermodel/internal/storage/buffer"

var Analyzer = &analysis.Analyzer{
	Name: "framerelease",
	Doc: "every buffer.Pool.Get/Insert frame must be released or handed off " +
		"(a leaked pin silently shrinks the pool and skews warm-run timings)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	// The pool's own package (and its tests) deliberately holds pins
	// to exercise eviction and pin accounting; the invariant is about
	// the pool's clients.
	if pass.Pkg.Path() == poolPath {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil
}

// checkFunc inspects one function body (nested function literals
// included: a frame captured by a closure still has its uses found by
// the scan, which covers the whole body).
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	analysis.WalkStack(body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isFrameSource(pass, call) {
			return true
		}
		method := ast.Unparen(call.Fun).(*ast.SelectorExpr).Sel.Name
		switch ctx := parentContext(stack, call); ctx.kind {
		case ctxDiscarded:
			pass.Reportf(call.Pos(),
				"result of Pool.%s is discarded: the returned frame stays pinned forever", method)
		case ctxAssigned:
			if ctx.lhs == nil {
				// Assigned to the blank identifier.
				pass.Reportf(call.Pos(),
					"frame from Pool.%s is assigned to _ and never released", method)
				return true
			}
			obj := pass.TypesInfo.Defs[ctx.lhs]
			if obj == nil {
				obj = pass.TypesInfo.Uses[ctx.lhs]
			}
			v, ok := obj.(*types.Var)
			if !ok {
				return true
			}
			if !releasedOrEscapes(pass, body, v, ctx.lhs) {
				pass.Reportf(call.Pos(),
					"frame %s from Pool.%s is never released or handed off (leaked pin)", v.Name(), method)
			}
		case ctxEscapes:
			// Call argument, return value, composite literal, …:
			// ownership moves with the frame.
		}
		return true
	})
}

// isFrameSource reports whether call is (*buffer.Pool).Get or Insert.
func isFrameSource(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || (fn.Name() != "Get" && fn.Name() != "Insert") {
		return false
	}
	named := analysis.ReceiverNamed(fn)
	return named != nil && named.Obj().Name() == "Pool" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == poolPath
}

type ctxKind int

const (
	ctxDiscarded ctxKind = iota // expression statement: result dropped
	ctxAssigned                 // bound to a variable (lhs) or blank
	ctxEscapes                  // flows into a call/return/literal/field
)

type callContext struct {
	kind ctxKind
	lhs  *ast.Ident // for ctxAssigned; nil when blank
}

// parentContext classifies how the frame-producing call's result is
// consumed, from the innermost enclosing node outward.
func parentContext(stack []ast.Node, call *ast.CallExpr) callContext {
	// Walk outward through value-transparent wrappers.
	for i := len(stack) - 1; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.ExprStmt:
			return callContext{kind: ctxDiscarded}
		case *ast.AssignStmt:
			// Find which lhs the call feeds. Get/Insert return one
			// value, so positions align 1:1 (a, b := p.Get(x), y).
			// The child of the assignment on the path to the call is
			// the call itself when the assignment is its direct
			// parent.
			child := stackTop(stack, i)
			if child == nil {
				child = call
			}
			idx := 0
			if len(parent.Rhs) == len(parent.Lhs) {
				for j, rhs := range parent.Rhs {
					if containsNode(rhs, child) {
						idx = j
						break
					}
				}
			}
			if idx < len(parent.Lhs) {
				if id, ok := parent.Lhs[idx].(*ast.Ident); ok {
					if id.Name == "_" {
						return callContext{kind: ctxAssigned}
					}
					return callContext{kind: ctxAssigned, lhs: id}
				}
			}
			// Assigned into a field/index: escapes.
			return callContext{kind: ctxEscapes}
		default:
			// Call argument, return, composite literal, binary expr,
			// and anything else that consumes the value.
			return callContext{kind: ctxEscapes}
		}
	}
	return callContext{kind: ctxEscapes}
}

// stackTop returns the node just inside stack[i], i.e. the child of
// stack[i] on the path to the call (or nil at the innermost level).
func stackTop(stack []ast.Node, i int) ast.Node {
	if i+1 < len(stack) {
		return stack[i+1]
	}
	return nil
}

func containsNode(root ast.Node, target ast.Node) bool {
	if root == nil || target == nil {
		return root == target
	}
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

// releasedOrEscapes scans body for a use of v that releases the frame
// or hands it off. Reads (selectors like v.Page, comparisons, blank
// assignment) do not count.
func releasedOrEscapes(pass *analysis.Pass, body *ast.BlockStmt, v *types.Var, def *ast.Ident) bool {
	ok := false
	analysis.WalkStack(body, func(n ast.Node, stack []ast.Node) bool {
		if ok {
			return false
		}
		id, isIdent := n.(*ast.Ident)
		if !isIdent || id == def || pass.TypesInfo.Uses[id] != v {
			return true
		}
		if useConsumes(stack, id) {
			ok = true
			return false
		}
		return true
	})
	return ok
}

// useConsumes classifies one use of the frame variable: does it
// release the pin or transfer ownership?
func useConsumes(stack []ast.Node, id *ast.Ident) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.SelectorExpr:
			if parent.X != id {
				return false // the use IS the selector's field name
			}
			// v.M(...): releasing if the method is Release, a handoff
			// if it is Handle (the handle carries the pin); plain field
			// reads (v.Page, v.ID) are not a handoff.
			if i >= 1 {
				if call, isCall := stack[i-1].(*ast.CallExpr); isCall && call.Fun == parent {
					return parent.Sel.Name == "Release" || parent.Sel.Name == "Handle"
				}
			}
			return false
		case *ast.CallExpr:
			// v passed as an argument (pool.Release(v), append, any
			// constructor): ownership moves.
			return true
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr,
			*ast.IndexExpr, *ast.SendStmt:
			return true
		case *ast.AssignStmt:
			// v on the right-hand side of a real assignment escapes
			// into the target; "_ = v" keeps nothing alive.
			for _, rhs := range parent.Rhs {
				if containsNode(rhs, id) {
					for _, lhs := range parent.Lhs {
						if l, isId := lhs.(*ast.Ident); !isId || l.Name != "_" {
							return true
						}
					}
					return false
				}
			}
			return false
		case *ast.BinaryExpr, *ast.IfStmt, *ast.ForStmt, *ast.SwitchStmt:
			return false // comparisons and conditions are reads
		case ast.Stmt:
			return false
		}
	}
	return false
}
