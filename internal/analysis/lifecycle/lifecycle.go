// Package lifecycle checks must-release protocols over the dataflow
// engine: a resource acquired on some path must, on every path out of
// the function, be released, returned, stored, or handed to something
// that takes ownership.
//
// Tracked resources, recognized by the type a call returns:
//
//   - *buffer.Frame — pinned by (*Pool).Get / Insert / GetOrInsert,
//     released by (*Pool).Release. Upgrades the lexical framerelease
//     analyzer: the held frame is followed through branches, loops and
//     helper calls instead of a single lexical window.
//   - vfs.File — opened through vfs.FS, released by Close.
//   - *store.SnapshotView, *store.ReadView, and hyper.DB values
//     returned by a method named Snapshot — released by Close. An open
//     snapshot pins its version in the store's ring.
//   - *fault.Proxy — started by fault.NewProxy, released by Close.
//
// A frame converted to its handle (f.Handle()) hands its pin to the
// handle, whose Release drops it.
//
// The analyzer also enforces the borrow rule for page slices lent to
// btree.View, objstore.View and objstore.ViewBatch callbacks (see
// borrow.go).
//
// Ownership transfers the analyzer understands: returning the
// resource, storing it into a field, element or composite literal,
// capturing it in a function literal, go statement or deferred call,
// and passing it to a callee. For calls resolved statically within the
// package, a per-parameter fixpoint summary decides whether the callee
// consumes (releases or stores) the argument; unknown callees are
// assumed to take ownership of frames, files and proxies, but only to
// *borrow* snapshots — the snapshot protocol is acquire, lend to a
// closure, close, so the caller keeps the release obligation.
//
// Error results are branch-sensitive: after res, err := acquire(), the
// err != nil arm carries no resource, and a nil-check of the resource
// itself (Pool.Get misses return nil) clears the obligation on the nil
// arm.
//
// The producer packages (buffer, store, vfs, fault) are exempt: they
// juggle their resources' representations, not the protocol. Test
// files are skipped.
package lifecycle

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"hypermodel/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lifecycle",
	Doc: "interprocedural must-release tracking for buffer frames, vfs files, " +
		"store snapshots and fault proxies: every acquisition must be released, " +
		"returned or handed off on every path",
	Run: run,
}

// Producer package paths (the fixture stubs use the same paths).
const (
	bufferPath = "hypermodel/internal/storage/buffer"
	storePath  = "hypermodel/internal/storage/store"
	vfsPath    = "hypermodel/internal/storage/vfs"
	hyperPath  = "hypermodel/internal/hyper"
	faultPath  = "hypermodel/internal/fault"
)

type kind int

const (
	kindFrame kind = iota
	kindFile
	kindSnapshot
	kindProxy
)

func (k kind) String() string {
	switch k {
	case kindFrame:
		return "frame"
	case kindFile:
		return "file"
	case kindSnapshot:
		return "snapshot"
	default:
		return "proxy"
	}
}

// verb describes the acquisition in diagnostics.
func (k kind) verb() string {
	switch k {
	case kindFile:
		return "opened"
	case kindProxy:
		return "started"
	default:
		return "pinned"
	}
}

// releaseName names the releasing operation in diagnostics.
func (k kind) releaseName() string {
	if k == kindFrame {
		return "Pool.Release"
	}
	return "Close"
}

// consequence explains why the leak matters, per kind.
func (k kind) consequence() string {
	switch k {
	case kindFrame:
		return "an unreleased pin occupies a buffer slot until restart"
	case kindFile:
		return "the handle leaks against the VFS"
	case kindSnapshot:
		return "an open snapshot pins its version in the ring and blocks reclamation"
	default:
		return "its listener and relay goroutines leak"
	}
}

// borrowOnUnknownCall reports whether passing the resource to an
// unresolvable callee keeps the release obligation with the caller.
func (k kind) borrowOnUnknownCall() bool { return k == kindSnapshot }

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	for _, p := range []string{bufferPath, storePath, vfsPath, faultPath} {
		if path == p {
			return nil // producer package: exempt
		}
	}
	imported := false
	for _, p := range []string{bufferPath, storePath, vfsPath, hyperPath, faultPath, btreePath, objstorePath} {
		if analysis.FindImport(pass.Pkg, p) != nil {
			imported = true
			break
		}
	}
	if !imported {
		return nil
	}

	var files []*ast.File
	for _, f := range pass.Files {
		if !pass.IsTestFile(f.Pos()) {
			files = append(files, f)
		}
	}
	a := &analyzer{
		pass:  pass,
		graph: analysis.NewCallGraph(pass.Pkg, pass.TypesInfo, files),
		cfgs:  make(map[*analysis.FuncInfo]*analysis.CFG),
	}
	for _, f := range files {
		a.checkBorrows(f)
	}

	// Phase 1: which parameters does each in-package function consume?
	s := analysis.Summarizer[lifeSummary]{
		Graph: a.graph,
		Equal: summaryEqual,
		Compute: func(fi *analysis.FuncInfo, get func(*types.Func) (lifeSummary, bool)) lifeSummary {
			return a.summarize(fi, get)
		},
	}
	a.summaries = s.Run()

	// Phase 2: per-function leak detection against the final summaries.
	final := func(obj *types.Func) (lifeSummary, bool) {
		sum, ok := a.summaries[obj]
		return sum, ok && a.graph.FuncOf(obj) != nil
	}
	for _, fi := range a.graph.Funcs() {
		cfg := a.cfgFor(fi)
		in, err := analysis.Forward(cfg, a.flow(fi, nil, final))
		if err != nil {
			return err
		}
		// Discard reports (path-insensitive), one visit per reachable block.
		for _, blk := range cfg.Blocks {
			st, ok := in[blk]
			if !ok {
				continue
			}
			st = st.clone()
			for _, n := range blk.Nodes {
				a.node(n, st, nil, final, true)
			}
		}
		// Leak reports: obligations still live when the function returns.
		exit, ok := in[cfg.Exit]
		if !ok {
			continue // no path reaches the exit
		}
		var leaks []resource
		for _, r := range exit {
			if r.param >= 0 {
				continue // caller-owned parameter, not ours to release
			}
			leaks = append(leaks, r)
		}
		sort.Slice(leaks, func(i, j int) bool { return leaks[i].pos < leaks[j].pos })
		for _, r := range leaks {
			a.pass.Reportf(r.pos,
				"%s %s here is not released via %s on every path to return: %s",
				r.kind, r.kind.verb(), r.kind.releaseName(), r.kind.consequence())
		}
	}
	return nil
}

// resource is one live release obligation.
type resource struct {
	kind kind
	pos  token.Pos  // acquisition site, where leaks are reported
	errV *types.Var // paired error result, for branch refinement
	// param is the parameter index during summarization, -1 for an
	// obligation acquired locally.
	param int
}

// lifeState maps a local variable to the obligation it holds.
type lifeState map[*types.Var]resource

func (st lifeState) clone() lifeState {
	c := make(lifeState, len(st))
	for k, v := range st {
		c[k] = v
	}
	return c
}

// lifeSummary records, per parameter index, whether the function
// consumes the argument (releases it or takes ownership). The zero
// value is the lattice bottom.
type lifeSummary struct {
	consumes map[int]bool
}

func summaryEqual(a, b lifeSummary) bool {
	if len(a.consumes) != len(b.consumes) {
		return false
	}
	for k := range a.consumes {
		if !b.consumes[k] {
			return false
		}
	}
	return true
}

// consumed accumulates parameter consumption during one summary pass.
type consumed struct {
	params map[int]bool
}

type analyzer struct {
	pass      *analysis.Pass
	graph     *analysis.CallGraph
	cfgs      map[*analysis.FuncInfo]*analysis.CFG
	summaries map[*types.Func]lifeSummary
}

func (a *analyzer) cfgFor(fi *analysis.FuncInfo) *analysis.CFG {
	cfg, ok := a.cfgs[fi]
	if !ok {
		cfg = analysis.NewCFG(fi.Body())
		a.cfgs[fi] = cfg
	}
	return cfg
}

// summarize seeds the dataflow with the function's trackable
// parameters and records which of them are consumed on some path.
func (a *analyzer) summarize(fi *analysis.FuncInfo, get func(*types.Func) (lifeSummary, bool)) lifeSummary {
	acc := &consumed{params: map[int]bool{}}
	if _, err := analysis.Forward(a.cfgFor(fi), a.flow(fi, acc, get)); err != nil {
		return lifeSummary{}
	}
	return lifeSummary{consumes: acc.params}
}

// entryState binds trackable parameters during summarization; the
// report pass starts empty (parameters are the caller's obligation).
func (a *analyzer) entryState(fi *analysis.FuncInfo, summarizing bool) lifeState {
	st := lifeState{}
	if !summarizing || fi.Obj == nil {
		return st
	}
	sig := fi.Obj.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if k, ok := kindOfType(p.Type()); ok {
			st[p] = resource{kind: k, pos: p.Pos(), param: i}
		}
	}
	return st
}

func (a *analyzer) flow(fi *analysis.FuncInfo, acc *consumed, lookup func(*types.Func) (lifeSummary, bool)) analysis.Flow[lifeState] {
	return analysis.Flow[lifeState]{
		Entry: func() lifeState { return a.entryState(fi, acc != nil) },
		Join: func(x, y lifeState) lifeState {
			u := x.clone()
			for k, v := range y {
				if _, ok := u[k]; !ok {
					u[k] = v
				}
			}
			return u
		},
		Equal: func(x, y lifeState) bool {
			if len(x) != len(y) {
				return false
			}
			for k := range x {
				if _, ok := y[k]; !ok {
					return false
				}
			}
			return true
		},
		Transfer: func(b *analysis.Block, in lifeState) lifeState {
			st := in.clone()
			for _, n := range b.Nodes {
				a.node(n, st, acc, lookup, false)
			}
			return st
		},
		Edge: a.edge,
	}
}

// edge refines the state across a branch on x == nil / x != nil: a nil
// resource carries no obligation, and a non-nil error means the paired
// resource was never produced.
func (a *analyzer) edge(from, to *analysis.Block, out lifeState) lifeState {
	// errors.Is(err, X) as the branch condition: the true arm implies
	// err is non-nil, so paired resources were never produced there.
	if call, ok := ast.Unparen(from.Cond).(*ast.CallExpr); ok {
		if analysis.IsPkgFunc(a.pass.TypesInfo, call, "errors", "Is") &&
			len(call.Args) == 2 && to == from.Succs[0] {
			if v, ok := localVar(a.pass.TypesInfo, call.Args[0]); ok {
				out = a.killPairedWith(v, out)
			}
		}
		return out
	}
	bin, ok := ast.Unparen(from.Cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return out
	}
	x := bin.X
	if isNilIdent(a.pass.TypesInfo, x) {
		x = bin.Y
	} else if !isNilIdent(a.pass.TypesInfo, bin.Y) {
		return out
	}
	v, ok := localVar(a.pass.TypesInfo, x)
	if !ok {
		return out
	}
	onTrue := to == from.Succs[0]
	xIsNil := (bin.Op == token.EQL) == onTrue
	if xIsNil {
		// The resource itself is nil on this arm: nothing was acquired.
		if _, live := out[v]; live {
			out = out.clone()
			delete(out, v)
		}
		return out
	}
	// x is non-nil. If x is an error paired with an acquisition, this
	// is the failure arm: the resource was never produced.
	return a.killPairedWith(v, out)
}

// killPairedWith removes every obligation whose paired error variable
// is v (the branch in hand has established v is a non-nil error).
func (a *analyzer) killPairedWith(v *types.Var, out lifeState) lifeState {
	var dead []*types.Var
	for rv, r := range out {
		if r.errV == v {
			dead = append(dead, rv)
		}
	}
	if len(dead) > 0 {
		out = out.clone()
		for _, rv := range dead {
			delete(out, rv)
		}
	}
	return out
}

// node applies one CFG node to the state; rep enables discard reports.
func (a *analyzer) node(n ast.Node, st lifeState, acc *consumed, lookup func(*types.Func) (lifeSummary, bool), rep bool) {
	analysis.WalkNode(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.DeferStmt:
			// defer pool.Release(f) / defer snap.Close() discharges the
			// obligation on every path to return; anything else a
			// deferred call references is treated as taken over by it.
			for _, v := range a.releaseTargets(m.Call) {
				a.consume(v, st, acc)
			}
			a.consumeIdentsIn(m.Call, st, acc)
			return false

		case *ast.GoStmt:
			// The goroutine inherits every resource it references.
			a.consumeIdentsIn(m.Call, st, acc)
			return false

		case *ast.FuncLit:
			// Captured resources become the closure's responsibility.
			a.consumeIdentsIn(m.Body, st, acc)
			return false

		case *ast.ReturnStmt:
			for _, res := range m.Results {
				a.escapeResult(res, st, acc)
			}
			return true

		case *ast.CompositeLit:
			// Stored into a structure: ownership moves with the value.
			for _, el := range m.Elts {
				a.consumeIdentsIn(el, st, acc)
			}
			return true

		case *ast.UnaryExpr:
			if m.Op == token.AND {
				a.consumeIdentsIn(m.X, st, acc)
			}
			return true

		case *ast.AssignStmt:
			a.assign(m, st, acc, rep)
			return true

		case *ast.DeclStmt:
			if gd, ok := m.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						a.valueSpec(vs, st)
					}
				}
			}
			return true

		case *ast.ExprStmt:
			if call, ok := ast.Unparen(m.X).(*ast.CallExpr); ok && rep {
				if k, ok := a.acquisition(call); ok {
					a.reportDiscard(call, k)
				}
			}
			return true

		case *ast.CallExpr:
			a.call(m, st, acc, lookup)
			return true
		}
		return true
	})
}

func (a *analyzer) reportDiscard(call *ast.CallExpr, k kind) {
	a.pass.Reportf(call.Pos(),
		"result of %s discarded: the %s it returns can never be released via %s",
		callName(call), k, k.releaseName())
}

// assign handles resource binding and escape through assignment.
func (a *analyzer) assign(as *ast.AssignStmt, st lifeState, acc *consumed, rep bool) {
	if len(as.Rhs) == 1 {
		// Producer call on the right: bind the result variable.
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			if k, ok := a.acquisition(call); ok {
				a.bind(as.Lhs, k, call, st, rep)
				return
			}
		}
		// Plain copy f2 := f moves the obligation to the new name.
		if len(as.Lhs) == 1 {
			if src, ok := a.trackedIdent(as.Rhs[0], st); ok {
				r := st[src]
				delete(st, src)
				if dst, ok := localVar(a.pass.TypesInfo, as.Lhs[0]); ok {
					st[dst] = r
				} else {
					// Stored through a selector, index or deref.
					if acc != nil && r.param >= 0 {
						acc.params[r.param] = true
					}
				}
				return
			}
		}
	}
	// Any tracked value assigned through a selector, index or deref
	// escapes into the target structure.
	escapes := false
	for _, lhs := range as.Lhs {
		if _, ok := ast.Unparen(lhs).(*ast.Ident); !ok {
			escapes = true
		}
	}
	if escapes {
		for _, rhs := range as.Rhs {
			a.consumeIdentsIn(rhs, st, acc)
		}
	}
}

func (a *analyzer) valueSpec(vs *ast.ValueSpec, st lifeState) {
	if len(vs.Values) != 1 {
		return
	}
	call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	if k, ok := a.acquisition(call); ok {
		lhs := make([]ast.Expr, len(vs.Names))
		for i, n := range vs.Names {
			lhs[i] = n
		}
		a.bind(lhs, k, call, st, false)
	}
}

// bind attaches a fresh obligation to the assignment's first target
// and pairs it with a trailing error variable when present.
func (a *analyzer) bind(lhs []ast.Expr, k kind, call *ast.CallExpr, st lifeState, rep bool) {
	if len(lhs) == 0 {
		return
	}
	v, ok := localVar(a.pass.TypesInfo, lhs[0])
	if !ok {
		// A store into a field or element is an ownership transfer; an
		// explicit blank is a discard.
		if id, isIdent := ast.Unparen(lhs[0]).(*ast.Ident); isIdent && id.Name == "_" && rep {
			a.reportDiscard(call, k)
		}
		return
	}
	// Rebinding a name silently replaces any prior obligation: loops
	// re-acquire into the same variable after releasing.
	r := resource{kind: k, pos: call.Pos(), param: -1}
	if len(lhs) >= 2 {
		if last, ok := localVar(a.pass.TypesInfo, lhs[len(lhs)-1]); ok && analysis.IsErrorType(last.Type()) {
			r.errV = last
		}
	}
	st[v] = r
}

// call applies release and ownership-transfer semantics of one call.
func (a *analyzer) call(call *ast.CallExpr, st lifeState, acc *consumed, lookup func(*types.Func) (lifeSummary, bool)) {
	for _, v := range a.releaseTargets(call) {
		a.consume(v, st, acc)
	}
	fn := analysis.Callee(a.pass.TypesInfo, call)
	if fn != nil && !isInterfaceMethod(fn) {
		if sum, ok := lookup(fn); ok {
			// In-package callee. A parameter that keeps the resource's
			// type was tracked by the summary: it tells consumed from
			// borrowed. A parameter that erases the kind (a local
			// interface, as in constructors wrapping a view) means the
			// callee stores or wraps the value: ownership moves.
			sig := fn.Type().(*types.Signature)
			for i, arg := range call.Args {
				v, ok := a.trackedIdent(arg, st)
				if !ok {
					continue
				}
				pi := i
				if n := sig.Params().Len(); pi >= n {
					pi = n - 1 // variadic tail
				}
				if pi < 0 {
					continue
				}
				if _, tracked := kindOfType(sig.Params().At(pi).Type()); tracked {
					if sum.consumes[pi] {
						a.consume(v, st, acc)
					}
				} else {
					a.consume(v, st, acc)
				}
			}
			return
		}
	}
	// Unknown callee: frames, files and proxies are handed off;
	// snapshots are lent and stay the caller's obligation.
	for _, arg := range call.Args {
		if v, ok := a.trackedIdent(arg, st); ok && !st[v].kind.borrowOnUnknownCall() {
			a.consume(v, st, acc)
		}
	}
}

// escapeResult kills obligations that flow out through one return
// expression: the ident itself, or idents inside composite literals
// and address-of expressions. Arguments of calls inside the result are
// left to call semantics (a borrowed snapshot is still a leak).
func (a *analyzer) escapeResult(e ast.Expr, st lifeState, acc *consumed) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := a.trackedIdent(e, st); ok {
			a.consume(v, st, acc)
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			a.consumeIdentsIn(e.X, st, acc)
		}
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			a.consumeIdentsIn(el, st, acc)
		}
	}
}

// consume discharges v's obligation, crediting the parameter summary
// when v is a tracked parameter.
func (a *analyzer) consume(v *types.Var, st lifeState, acc *consumed) {
	r, ok := st[v]
	if !ok {
		return
	}
	delete(st, v)
	if acc != nil && r.param >= 0 {
		acc.params[r.param] = true
	}
}

// consumeIdentsIn discharges every tracked variable referenced under n.
func (a *analyzer) consumeIdentsIn(n ast.Node, st lifeState, acc *consumed) {
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if v, ok := a.pass.TypesInfo.ObjectOf(id).(*types.Var); ok {
				a.consume(v, st, acc)
			}
		}
		return true
	})
}

// trackedIdent resolves e to a variable currently holding an
// obligation.
func (a *analyzer) trackedIdent(e ast.Expr, st lifeState) (*types.Var, bool) {
	v, ok := localVar(a.pass.TypesInfo, e)
	if !ok {
		return nil, false
	}
	_, live := st[v]
	return v, live
}

// releaseTargets returns the variables whose obligation this call
// discharges: pool.Release(f) for frames, and f.Handle(), which moves
// the pin into the frame's handle; x.Close() — or x.Abort(), which
// also drops a view's pin — for everything else.
func (a *analyzer) releaseTargets(call *ast.CallExpr) []*types.Var {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	switch sel.Sel.Name {
	case "Handle":
		if v, ok := localVar(a.pass.TypesInfo, sel.X); ok && len(call.Args) == 0 {
			if k, tracked := kindOfType(v.Type()); tracked && k == kindFrame {
				return []*types.Var{v}
			}
		}
	case "Release":
		if len(call.Args) != 1 {
			return nil
		}
		if v, ok := localVar(a.pass.TypesInfo, call.Args[0]); ok {
			return []*types.Var{v}
		}
	case "Close", "Abort":
		if v, ok := localVar(a.pass.TypesInfo, sel.X); ok {
			return []*types.Var{v}
		}
	}
	return nil
}

// acquisition reports whether the call produces a tracked resource as
// its first result.
func (a *analyzer) acquisition(call *ast.CallExpr) (kind, bool) {
	fn := analysis.Callee(a.pass.TypesInfo, call)
	if fn == nil {
		return 0, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return 0, false
	}
	t := sig.Results().At(0).Type()
	k, ok := kindOfType(t)
	if !ok {
		return 0, false
	}
	// hyper.DB values count only from methods named Snapshot: every
	// other DB-returning function is a constructor handing over a
	// database, not a pin.
	if k == kindSnapshot && isHyperDB(t) && fn.Name() != "Snapshot" {
		return 0, false
	}
	return k, true
}

// kindOfType maps a type to the resource kind it represents.
func kindOfType(t types.Type) (kind, bool) {
	if p, ok := t.(*types.Pointer); ok {
		n, ok := p.Elem().(*types.Named)
		if !ok {
			return 0, false
		}
		switch {
		case namedIn(n, "Frame", bufferPath):
			return kindFrame, true
		case namedIn(n, "SnapshotView", storePath), namedIn(n, "ReadView", storePath):
			return kindSnapshot, true
		case namedIn(n, "Proxy", faultPath):
			return kindProxy, true
		}
		return 0, false
	}
	if n, ok := t.(*types.Named); ok {
		switch {
		case namedIn(n, "File", vfsPath):
			return kindFile, true
		case namedIn(n, "DB", hyperPath):
			return kindSnapshot, true
		}
	}
	return 0, false
}

func isHyperDB(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && namedIn(n, "DB", hyperPath)
}

// namedIn matches a named type by name and package path. Fixture
// stubs live under the same import paths, so exact match suffices.
func namedIn(n *types.Named, name, path string) bool {
	obj := n.Obj()
	return obj != nil && obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == path
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.ObjectOf(id).(*types.Nil)
	return isNil
}

func localVar(info *types.Info, e ast.Expr) (*types.Var, bool) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil, false
	}
	v, ok := info.ObjectOf(id).(*types.Var)
	return v, ok
}

func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, isIface := sig.Recv().Type().Underlying().(*types.Interface)
	return isIface
}

func callName(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		return id.Name
	}
	return "call"
}
