package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"tempest/internal/analysis"
)

// ItemKind discriminates Item.
type ItemKind uint8

const (
	// ItemGroup is a plain container (every body's root).
	ItemGroup ItemKind = iota
	// ItemWork is straight-line computation: Cost units at Depth.
	ItemWork
	// ItemCall is one call site.
	ItemCall
)

// FuncArg is a function-typed argument at a call site: either a known
// node (literal, declared function, bound method) or a forwarding of the
// enclosing function's own parameter.
type FuncArg struct {
	Node  *Node
	Param int // -1 unless forwarding an own parameter
}

// Item is one element of a function body's cost tree.
type Item struct {
	Kind  ItemKind
	Depth int
	Pos   token.Pos
	// Cost is the work unit count (ItemWork): 1 per statement plus 1 per
	// arithmetic/comparison operator, so dense numeric kernels weigh more
	// than bookkeeping of the same line count.
	Cost float64
	// Call fields.
	Callee      *Node
	ParamCallee int // index of the caller's own invoked parameter, -1 otherwise
	// Captured marks a ParamCallee that refers to a parameter of the
	// enclosing *declared* function, invoked from inside a literal that
	// captured it (the index is in the encloser's parameter space).
	Captured bool
	Targets  []*Node
	FuncArgs map[int]FuncArg
	// Bound marks call items synthesized from func-typed arguments
	// (EdgeBound).
	Bound    bool
	Children []*Item
}

// visit applies fn to the item and every descendant.
func (it *Item) visit(fn func(*Item)) {
	if it == nil {
		return
	}
	fn(it)
	for _, c := range it.Children {
		c.visit(fn)
	}
}

// bodyBuilder compiles one function body into an item tree, creating
// closure nodes on the way.
type bodyBuilder struct {
	g    *Graph
	pkg  *analysis.Package
	node *Node
	// locals maps single-assignment local variables to their closure
	// node; killed records reassigned variables that can no longer be
	// tracked.
	locals map[types.Object]*Node
	killed map[types.Object]bool
	// funcParamIdx maps function-typed parameters to their indices, by
	// object. Literal builders inherit the enclosing function's entries
	// (captures) and add their own; ownParams tells them apart.
	funcParamIdx map[types.Object]int
	ownParams    map[types.Object]bool
	litCount     int
}

// bindParams indexes the function's own parameters, layered over any
// inherited (captured) entries.
func (b *bodyBuilder) bindParams(ft *ast.FuncType) {
	if b.funcParamIdx == nil {
		b.funcParamIdx = map[types.Object]int{}
	}
	b.ownParams = map[types.Object]bool{}
	if ft.Params == nil {
		return
	}
	idx := 0
	for _, field := range ft.Params.List {
		names := field.Names
		if len(names) == 0 {
			idx++ // unnamed parameter still occupies an index
			continue
		}
		for _, name := range names {
			obj := b.pkg.TypesInfo.Defs[name]
			if obj != nil {
				b.ownParams[obj] = true
				if _, ok := obj.Type().Underlying().(*types.Signature); ok {
					b.funcParamIdx[obj] = idx
				}
			}
			idx++
		}
	}
}

// buildBlock compiles a block into a group item.
func (b *bodyBuilder) buildBlock(blk *ast.BlockStmt, depth int) *Item {
	root := &Item{Kind: ItemGroup, Depth: depth, ParamCallee: -1}
	if blk != nil {
		root.Children = b.buildStmts(blk.List, depth)
	}
	return root
}

// buildStmts compiles a statement list.
func (b *bodyBuilder) buildStmts(stmts []ast.Stmt, depth int) []*Item {
	var out []*Item
	for _, s := range stmts {
		out = append(out, b.buildStmt(s, depth)...)
	}
	return out
}

// buildStmt compiles one statement into items.
func (b *bodyBuilder) buildStmt(s ast.Stmt, depth int) []*Item {
	if depth > b.node.LoopDepth {
		b.node.LoopDepth = depth
	}
	switch st := s.(type) {
	case *ast.BlockStmt:
		return b.buildStmts(st.List, depth)
	case *ast.LabeledStmt:
		return b.buildStmt(st.Stmt, depth)
	case *ast.ForStmt:
		var out []*Item
		if st.Init != nil {
			out = append(out, b.buildStmt(st.Init, depth)...)
		}
		if st.Cond != nil {
			out = append(out, b.exprItems(st.Cond, depth+1)...)
		}
		if st.Post != nil {
			out = append(out, b.buildStmt(st.Post, depth+1)...)
		}
		out = append(out, b.buildStmts(st.Body.List, depth+1)...)
		return out
	case *ast.RangeStmt:
		out := b.exprItems(st.X, depth)
		out = append(out, b.buildStmts(st.Body.List, depth+1)...)
		return out
	case *ast.IfStmt:
		var out []*Item
		if st.Init != nil {
			out = append(out, b.buildStmt(st.Init, depth)...)
		}
		out = append(out, b.exprItems(st.Cond, depth)...)
		out = append(out, b.buildStmts(st.Body.List, depth)...)
		if st.Else != nil {
			out = append(out, b.buildStmt(st.Else, depth)...)
		}
		return out
	case *ast.SwitchStmt:
		var out []*Item
		if st.Init != nil {
			out = append(out, b.buildStmt(st.Init, depth)...)
		}
		if st.Tag != nil {
			out = append(out, b.exprItems(st.Tag, depth)...)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, b.buildStmts(cc.Body, depth)...)
			}
		}
		return out
	case *ast.TypeSwitchStmt:
		var out []*Item
		if st.Init != nil {
			out = append(out, b.buildStmt(st.Init, depth)...)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, b.buildStmts(cc.Body, depth)...)
			}
		}
		return out
	case *ast.SelectStmt:
		var out []*Item
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					out = append(out, b.buildStmt(cc.Comm, depth)...)
				}
				out = append(out, b.buildStmts(cc.Body, depth)...)
			}
		}
		return out
	case *ast.GoStmt:
		return b.exprItems(st.Call, depth)
	case *ast.DeferStmt:
		return b.exprItems(st.Call, depth)
	case *ast.AssignStmt:
		b.noteAssignments(st)
		return b.leafItems(s, depth)
	case *ast.DeclStmt:
		b.noteDecl(st)
		return b.leafItems(s, depth)
	case nil:
		return nil
	default:
		return b.leafItems(s, depth)
	}
}

// noteAssignments tracks single assignments of function values —
// literals (`v := func(...) {...}`), method values (`v := c.Inc`) and
// function references (`v := pkg.Fn`) — and kills variables that are
// reassigned.
func (b *bodyBuilder) noteAssignments(st *ast.AssignStmt) {
	for i, lhs := range st.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := b.pkg.TypesInfo.Defs[id]
		if obj == nil {
			obj = b.pkg.TypesInfo.Uses[id]
		}
		if obj == nil {
			continue
		}
		if _, tracked := b.locals[obj]; tracked {
			b.killed[obj] = true // reassigned: no longer single-assignment
			continue
		}
		if st.Tok == token.DEFINE && i < len(st.Rhs) {
			rhs := ast.Unparen(st.Rhs[i])
			if lit, ok := rhs.(*ast.FuncLit); ok {
				b.locals[obj] = b.litNode(lit)
			} else if fa, ok := b.resolveFuncArg(rhs); ok && fa.Node != nil {
				b.locals[obj] = fa.Node
			}
		}
	}
}

// noteDecl tracks `var v = func(...) {...}` declarations.
func (b *bodyBuilder) noteDecl(st *ast.DeclStmt) {
	gd, ok := st.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			if i >= len(vs.Values) {
				continue
			}
			lit, ok := ast.Unparen(vs.Values[i]).(*ast.FuncLit)
			if !ok {
				continue
			}
			if obj := b.pkg.TypesInfo.Defs[name]; obj != nil {
				b.locals[obj] = b.litNode(lit)
			}
		}
	}
}

// leafItems compiles a straight-line statement: one work item (cost 1
// plus one per operator) and a call item per call expression.
func (b *bodyBuilder) leafItems(s ast.Stmt, depth int) []*Item {
	items := []*Item{{Kind: ItemWork, Depth: depth, Pos: s.Pos(), Cost: 1, ParamCallee: -1}}
	work := items[0]
	ast.Inspect(s, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.BlockStmt:
			return false // sub-blocks are handled by buildStmt callers
		case *ast.FuncLit:
			b.litNode(v) // definition only; calls resolve via locals/args
			return false
		case *ast.BinaryExpr:
			work.Cost++
		case *ast.CallExpr:
			if it := b.callItem(v, depth); it != nil {
				items = append(items, it)
			}
		}
		return true
	})
	return items
}

// exprItems compiles an expression appearing in control-flow position.
func (b *bodyBuilder) exprItems(e ast.Expr, depth int) []*Item {
	items := []*Item{}
	work := &Item{Kind: ItemWork, Depth: depth, Pos: e.Pos(), Cost: 0, ParamCallee: -1}
	ast.Inspect(e, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			b.litNode(v)
			return false
		case *ast.BinaryExpr:
			work.Cost++
		case *ast.CallExpr:
			if it := b.callItem(v, depth); it != nil {
				items = append(items, it)
			}
		}
		return true
	})
	if work.Cost > 0 {
		items = append(items, work)
	}
	return items
}

// litNode returns (creating on first sight) the node for a function
// literal, compiling its body with a fresh builder that shares the
// enclosing local-closure table.
func (b *bodyBuilder) litNode(lit *ast.FuncLit) *Node {
	key := litKey{b.node, lit}
	if n, ok := b.g.litNodes[key]; ok {
		return n
	}
	b.litCount++
	id := litName(b.node.ID, b.litCount)
	n := &Node{
		ID:            id,
		Sym:           litName(b.node.Sym, b.litCount),
		PkgPath:       b.node.PkgPath,
		Pos:           lit.Pos(),
		owner:         b.node,
		paramCalls:    map[int]int{},
		capturedCalls: map[int]int{},
		funcParams:    map[int]bool{},
	}
	if sig, ok := b.pkg.TypesInfo.Types[lit].Type.(*types.Signature); ok {
		for i := 0; i < sig.Params().Len(); i++ {
			if _, ok := sig.Params().At(i).Type().Underlying().(*types.Signature); ok {
				n.funcParams[i] = true
			}
		}
	}
	b.g.Nodes[id] = n
	b.g.litNodes[key] = n
	lb := &bodyBuilder{
		g: b.g, pkg: b.pkg, node: n,
		locals: b.locals, killed: b.killed,
		// Captures: the literal sees the enclosing builder's parameter
		// index spaces; bindParams layers its own parameters on a copy.
		funcParamIdx: copyIdx(b.funcParamIdx),
	}
	lb.bindParams(lit.Type)
	n.Items = lb.buildBlock(lit.Body, 0)
	return n
}

// callItem resolves one call expression into an item, nil for
// conversions and unresolvable-and-argless dynamic calls.
func (b *bodyBuilder) callItem(call *ast.CallExpr, depth int) *Item {
	if tv, ok := b.pkg.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return nil // conversion, not a call
	}
	it := &Item{Kind: ItemCall, Depth: depth, Pos: call.Pos(), ParamCallee: -1}

	fun := ast.Unparen(call.Fun)
	for {
		switch f := fun.(type) {
		case *ast.IndexExpr:
			// Only unwrap generic instantiation, not fn-table indexing.
			if tv, ok := b.pkg.TypesInfo.Types[f.X]; ok && tv.Type != nil {
				if _, isSig := tv.Type.Underlying().(*types.Signature); isSig {
					fun = ast.Unparen(f.X)
					continue
				}
			}
		case *ast.IndexListExpr:
			fun = ast.Unparen(f.X)
			continue
		}
		break
	}

	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := b.pkg.TypesInfo.Uses[f].(type) {
		case *types.Func:
			it.Callee = b.g.nodeForObj(obj)
		case *types.Var:
			if idx, ok := b.funcParamIdx[obj]; ok {
				it.ParamCallee = idx
				it.Captured = !b.ownParams[obj]
			} else if n, ok := b.locals[obj]; ok && !b.killed[obj] {
				it.Callee = n
			}
		case *types.Builtin:
			return nil // len/cap/append…: counted as work, not calls
		}
	case *ast.SelectorExpr:
		if sel, ok := b.pkg.TypesInfo.Selections[f]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				if iface, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
					it.Targets = b.g.devirtualize(iface, fn.Name())
				} else {
					it.Callee = b.g.nodeForObj(fn)
				}
			}
		} else if fn, ok := b.pkg.TypesInfo.Uses[f.Sel].(*types.Func); ok {
			it.Callee = b.g.nodeForObj(fn) // qualified pkg.Fn
		}
	case *ast.FuncLit:
		it.Callee = b.litNode(f) // immediately-invoked literal
	}

	// Resolve function-typed arguments.
	for i, arg := range call.Args {
		if tv, ok := b.pkg.TypesInfo.Types[arg]; ok {
			if _, ok := tv.Type.Underlying().(*types.Signature); ok {
				if fa, ok := b.resolveFuncArg(arg); ok {
					if it.FuncArgs == nil {
						it.FuncArgs = map[int]FuncArg{}
					}
					it.FuncArgs[i] = fa
				}
			}
		}
	}

	if it.Callee == nil && it.ParamCallee < 0 && len(it.Targets) == 0 && len(it.FuncArgs) == 0 {
		// Fully dynamic call: count it as a unit of work instead.
		return &Item{Kind: ItemWork, Depth: depth, Pos: call.Pos(), Cost: 1, ParamCallee: -1}
	}
	return it
}

// resolveFuncArg classifies a function-typed argument.
func (b *bodyBuilder) resolveFuncArg(arg ast.Expr) (FuncArg, bool) {
	arg = ast.Unparen(arg)
	switch v := arg.(type) {
	case *ast.FuncLit:
		return FuncArg{Node: b.litNode(v), Param: -1}, true
	case *ast.Ident:
		switch obj := b.pkg.TypesInfo.Uses[v].(type) {
		case *types.Func:
			return FuncArg{Node: b.g.nodeForObj(obj), Param: -1}, true
		case *types.Var:
			if idx, ok := b.funcParamIdx[obj]; ok {
				return FuncArg{Node: nil, Param: idx}, true
			}
			if n, ok := b.locals[obj]; ok && !b.killed[obj] {
				return FuncArg{Node: n, Param: -1}, true
			}
		}
	case *ast.SelectorExpr:
		// Method value (x.M) or qualified function (pkg.Fn).
		if sel, ok := b.pkg.TypesInfo.Selections[v]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return FuncArg{Node: b.g.nodeForObj(fn), Param: -1}, true
			}
		} else if fn, ok := b.pkg.TypesInfo.Uses[v.Sel].(*types.Func); ok {
			return FuncArg{Node: b.g.nodeForObj(fn), Param: -1}, true
		}
	}
	return FuncArg{}, false
}

// devirtualize finds the concrete methods implementing an interface
// call, bounded by maxDevirt. nil means the site stays dynamic.
func (g *Graph) devirtualize(iface *types.Interface, method string) []*Node {
	if iface.Empty() {
		return nil
	}
	var targets []*Node
	seen := map[*Node]bool{}
	for _, t := range g.concreteTypes {
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			continue // uninstantiated generic: not a devirtualization target
		}
		var impl types.Type
		switch {
		case types.Implements(t, iface):
			impl = t
		case types.Implements(types.NewPointer(t), iface):
			impl = types.NewPointer(t)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, nil, method)
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		n := g.nodeForObj(fn)
		if n == nil || seen[n] {
			continue
		}
		seen[n] = true
		targets = append(targets, n)
		if len(targets) > maxDevirt {
			return nil // too hot to expand: keep the site dynamic
		}
	}
	return targets
}

// litKey identifies one literal within its enclosing node.
type litKey struct {
	owner *Node
	lit   *ast.FuncLit
}

// copyIdx clones a parameter index map.
func copyIdx(m map[types.Object]int) map[types.Object]int {
	out := make(map[types.Object]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// litName renders the runtime-style literal name parent.funcN.
func litName(parent string, n int) string {
	return parent + ".func" + strconv.Itoa(n)
}
