// Package lockorder detects inconsistent lock-acquisition order across
// the whole program — the static shadow of lockcheck: where lockcheck
// proves annotated fields are accessed under their mutex, lockorder
// proves the mutexes themselves are always taken in one global order.
//
// The pass runs program-wide on the interprocedural substrate
// (internal/analysis/callgraph): every `mu.Lock()`/`RLock()` call site
// is resolved to a stable lock identity (the declaring struct field or
// package-level variable — the same names `// guarded by` annotations
// use), a linear scan of each function tracks which locks are held at
// each acquisition, and calls made while holding a lock pull in the
// callee's transitive acquire set through the call graph. The resulting
// acquired-while-holding graph is checked for cycles:
//
//   - A acquired while holding B in one place, B while holding A in
//     another ⇒ potential deadlock under concurrent execution;
//   - A acquired while already held (unless both acquisitions are
//     RLock) ⇒ potential self-deadlock.
//
// Limits, by design: the scan is flow-insensitive across branches
// (a lock taken in an if-arm is considered held for the statements
// after it until unlocked), goroutine and closure bodies are not
// scanned as part of the spawning function, and locks that cannot be
// named globally (locals, parameters) are ignored. Sanctioned nested
// acquisitions carry `//tempest:ignore lockorder <why>`.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"tempest/internal/analysis"
	"tempest/internal/analysis/callgraph"
)

// Analyzer implements the lockorder pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "mutexes must be acquired in a consistent global order; a cycle in the " +
		"acquired-while-holding graph is a potential deadlock",
	RunProgram: runProgram,
}

// lockRef is one acquisition: the lock's stable identity plus whether
// the acquisition is shared (RLock).
type lockRef struct {
	id     string // "pkgpath.Type.field" or "pkgpath.var"
	name   string // display form "pkg.Type.field"
	shared bool
}

// orderEdge records "to acquired while holding from" at pos.
type orderEdge struct {
	from, to lockRef
	pos      token.Pos
	// viaCall names the called function whose transitive acquires
	// produced the edge; empty for direct nested Lock calls.
	viaCall string
}

// heldCall records a function call made while holding locks.
type heldCall struct {
	held   []lockRef
	callee *callgraph.Node
	pos    token.Pos
}

func runProgram(pass *analysis.ProgramPass) error {
	g, err := callgraph.Build(pass.Prog.Pkgs)
	if err != nil {
		return err
	}
	sc := &scanner{g: g, direct: map[*callgraph.Node][]lockRef{}}
	for _, pkg := range pass.Prog.Pkgs {
		sc.pkg = pkg
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				sc.node = g.NodeByObj(obj)
				sc.held = nil
				sc.stmts(fd.Body.List)
			}
		}
	}

	edges := sc.edges
	edges = append(edges, sc.callEdges()...)
	reportCycles(pass, edges)
	return nil
}

type scanner struct {
	g    *callgraph.Graph
	pkg  *analysis.Package
	node *callgraph.Node // nil for init oddities; summaries skipped then
	held []lockRef
	// direct collects every lock a function acquires anywhere in its
	// body (the per-function summary the call-graph propagation unions).
	direct map[*callgraph.Node][]lockRef
	// edges are direct acquired-while-holding observations.
	edges []orderEdge
	// calls are function calls made while holding at least one lock.
	calls []heldCall
}

// stmts walks a statement list linearly, tracking the held set.
func (s *scanner) stmts(list []ast.Stmt) {
	for _, st := range list {
		s.stmt(st)
	}
}

func (s *scanner) stmt(st ast.Stmt) {
	switch v := st.(type) {
	case nil:
	case *ast.BlockStmt:
		s.stmts(v.List)
	case *ast.LabeledStmt:
		s.stmt(v.Stmt)
	case *ast.IfStmt:
		s.stmt(v.Init)
		s.calls0(v.Cond)
		s.stmt(v.Body)
		s.stmt(v.Else)
	case *ast.ForStmt:
		s.stmt(v.Init)
		s.calls0(v.Cond)
		s.stmt(v.Body)
		s.stmt(v.Post)
	case *ast.RangeStmt:
		s.calls0(v.X)
		s.stmt(v.Body)
	case *ast.SwitchStmt:
		s.stmt(v.Init)
		s.calls0(v.Tag)
		s.stmt(v.Body)
	case *ast.TypeSwitchStmt:
		s.stmt(v.Init)
		s.stmt(v.Body)
	case *ast.SelectStmt:
		s.stmt(v.Body)
	case *ast.CaseClause:
		for _, e := range v.List {
			s.calls0(e)
		}
		s.stmts(v.Body)
	case *ast.CommClause:
		s.stmt(v.Comm)
		s.stmts(v.Body)
	case *ast.GoStmt:
		// The goroutine body runs later, under its own held set.
	case *ast.DeferStmt:
		// Deferred unlocks keep the lock held to function end — exactly
		// the model a linear scan already assumes — so mutex ops under
		// defer are not applied to the held set at all; deferred other
		// calls are treated as happening here (conservative).
		if s.isMutexOp(v.Call) {
			return
		}
		s.call(v.Call)
	default:
		s.calls0(st)
	}
}

// calls0 processes every call in a leaf statement or expression, in
// source order, outside any function literal.
func (s *scanner) calls0(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := c.(*ast.CallExpr); ok {
			if s.lockOp(call) {
				return true
			}
			s.call(call)
		}
		return true
	})
}

// isMutexOp reports whether the call is Lock/RLock/Unlock/RUnlock on a
// sync mutex, without touching the held set.
func (s *scanner) isMutexOp(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return isMutex(s.pkg.TypesInfo.Types[sel.X].Type)
	}
	return false
}

// lockOp handles a Lock/RLock/Unlock/RUnlock call, updating the held
// set; reports whether the call was one.
func (s *scanner) lockOp(call *ast.CallExpr) bool {
	if !s.isMutexOp(call) {
		return false
	}
	sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	method := sel.Sel.Name
	ref, ok := s.lockIdent(sel.X)
	if !ok {
		return true // a mutex op, but not a globally nameable lock
	}
	ref.shared = method == "RLock" || method == "RUnlock"
	switch method {
	case "Lock", "RLock":
		for _, h := range s.held {
			s.edges = append(s.edges, orderEdge{from: h, to: ref, pos: call.Pos()})
		}
		s.held = append(s.held, ref)
		if s.node != nil {
			s.direct[s.node] = append(s.direct[s.node], ref)
		}
	case "Unlock", "RUnlock":
		for i := len(s.held) - 1; i >= 0; i-- {
			if s.held[i].id == ref.id {
				s.held = append(s.held[:i], s.held[i+1:]...)
				break
			}
		}
	}
	return true
}

// call records a resolved function call made while holding locks.
func (s *scanner) call(call *ast.CallExpr) {
	if len(s.held) == 0 {
		return
	}
	var obj *types.Func
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj, _ = s.pkg.TypesInfo.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		if sl, ok := s.pkg.TypesInfo.Selections[f]; ok {
			obj, _ = sl.Obj().(*types.Func)
		} else {
			obj, _ = s.pkg.TypesInfo.Uses[f.Sel].(*types.Func)
		}
	}
	n := s.g.NodeByObj(obj)
	if n == nil {
		return
	}
	s.calls = append(s.calls, heldCall{held: append([]lockRef(nil), s.held...), callee: n, pos: call.Pos()})
}

// lockIdent derives the stable identity of the locked expression: a
// struct field ("pkgpath.Type.field") or a package-level variable
// ("pkgpath.var"). Locals and parameters return false.
func (s *scanner) lockIdent(x ast.Expr) (lockRef, bool) {
	switch v := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		sel, ok := s.pkg.TypesInfo.Selections[v]
		if !ok {
			// Qualified package-level var (pkg.mu).
			if obj, ok := s.pkg.TypesInfo.Uses[v.Sel].(*types.Var); ok && isGlobal(obj) {
				return globalRef(obj), true
			}
			return lockRef{}, false
		}
		field, ok := sel.Obj().(*types.Var)
		if !ok {
			return lockRef{}, false
		}
		recv := sel.Recv()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok {
			return lockRef{}, false
		}
		tn := named.Obj()
		pkgPath, pkgName := "", ""
		if tn.Pkg() != nil {
			pkgPath, pkgName = tn.Pkg().Path(), tn.Pkg().Name()
		}
		return lockRef{
			id:   pkgPath + "." + tn.Name() + "." + field.Name(),
			name: pkgName + "." + tn.Name() + "." + field.Name(),
		}, true
	case *ast.Ident:
		if obj, ok := s.pkg.TypesInfo.Uses[v].(*types.Var); ok && isGlobal(obj) {
			return globalRef(obj), true
		}
	}
	return lockRef{}, false
}

// isGlobal reports whether the variable is declared at package scope.
func isGlobal(obj *types.Var) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

func globalRef(obj *types.Var) lockRef {
	return lockRef{
		id:   obj.Pkg().Path() + "." + obj.Name(),
		name: obj.Pkg().Name() + "." + obj.Name(),
	}
}

// isMutex reports whether t is sync.Mutex or sync.RWMutex (or a pointer
// to one).
func isMutex(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// callEdges expands calls-while-holding into order edges using each
// callee's transitive acquire set over the call graph. Closure edges are
// excluded: a literal usually runs on another goroutine or under caller
// control the linear scan cannot see.
func (s *scanner) callEdges() []orderEdge {
	// Fixpoint: acq[n] = direct locks ∪ acquires of statically called fns.
	acq := map[*callgraph.Node]map[string]lockRef{}
	for n, refs := range s.direct {
		m := map[string]lockRef{}
		for _, r := range refs {
			m[r.id] = r
		}
		acq[n] = m
	}
	for changed, iter := true, 0; changed && iter < 64; iter++ {
		changed = false
		for _, n := range s.g.Nodes {
			for _, e := range n.Out {
				if e.Kind != callgraph.EdgeStatic && e.Kind != callgraph.EdgeDevirt {
					continue
				}
				for id, r := range acq[e.Callee] {
					if _, ok := acq[n][id]; !ok {
						if acq[n] == nil {
							acq[n] = map[string]lockRef{}
						}
						acq[n][id] = r
						changed = true
					}
				}
			}
		}
	}
	var out []orderEdge
	for _, hc := range s.calls {
		ids := make([]string, 0, len(acq[hc.callee]))
		for id := range acq[hc.callee] {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			to := acq[hc.callee][id]
			to.shared = false // mode unknown through a call: assume exclusive
			for _, h := range hc.held {
				out = append(out, orderEdge{from: h, to: to, pos: hc.pos, viaCall: hc.callee.Sym})
			}
		}
	}
	return out
}

// reportCycles finds self-edges and two-way (or longer) cycles in the
// acquired-while-holding graph and reports each offending acquisition.
func reportCycles(pass *analysis.ProgramPass, edges []orderEdge) {
	adj := map[string]map[string]bool{}
	for _, e := range edges {
		if e.from.id == e.to.id {
			continue
		}
		if adj[e.from.id] == nil {
			adj[e.from.id] = map[string]bool{}
		}
		adj[e.from.id][e.to.id] = true
	}
	reaches := func(from, to string) bool {
		seen := map[string]bool{from: true}
		queue := []string{from}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			if cur == to {
				return true
			}
			for next := range adj[cur] {
				if !seen[next] {
					seen[next] = true
					queue = append(queue, next)
				}
			}
		}
		return false
	}

	seen := map[string]bool{}
	for _, e := range edges {
		if e.from.id == e.to.id {
			if e.from.shared && e.to.shared {
				continue // RLock under RLock: shared, legal
			}
			key := fmt.Sprintf("self|%d|%s", e.pos, e.from.id)
			if seen[key] {
				continue
			}
			seen[key] = true
			via := ""
			if e.viaCall != "" {
				via = fmt.Sprintf(" (through call to %s)", e.viaCall)
			}
			pass.Reportf(e.pos, "%s acquired while already held%s — potential self-deadlock", e.to.name, via)
			continue
		}
		if !reaches(e.to.id, e.from.id) {
			continue
		}
		key := fmt.Sprintf("cycle|%d|%s|%s", e.pos, e.from.id, e.to.id)
		if seen[key] {
			continue
		}
		seen[key] = true
		via := ""
		if e.viaCall != "" {
			via = fmt.Sprintf(" through call to %s", e.viaCall)
		}
		pass.Reportf(e.pos, "%s acquired%s while holding %s, but elsewhere the order is reversed — potential deadlock cycle",
			e.to.name, via, e.from.name)
	}
}
