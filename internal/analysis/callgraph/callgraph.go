// Package callgraph constructs a static, repo-wide call graph over the
// packages loaded by internal/analysis — the interprocedural substrate
// under Tempest's cost model, instrumentation planner and program-wide
// vet passes.
//
// The graph is deliberately richer than a flat who-calls-whom relation:
//
//   - every call site carries its loop-nest depth, so downstream cost
//     models can weight a call inside a triple loop above a call made
//     once at function entry;
//   - function literals become first-class nodes (named parent.funcN,
//     matching the runtime's symbol scheme), and closures passed as
//     arguments are connected to the point where the receiving function
//     actually invokes the parameter — including through forwarding
//     chains (f passes its callback to g, g to h, h calls it);
//   - interface call sites are devirtualized when the loaded program
//     contains a bounded number of implementing types (maxDevirt),
//     producing one edge per concrete method with the fan-out recorded so
//     cost models can split frequency between targets.
//
// Everything is stdlib-only and offline, riding the same go/types
// information the analysis loader already produces.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"tempest/internal/analysis"
)

const (
	// maxDevirt bounds interface-call devirtualization: a call through an
	// interface with at most this many implementing types in the loaded
	// program gets one edge per concrete method; busier interfaces stay
	// unresolved.
	maxDevirt = 4
	// externalParamDepth is the loop depth assumed when a func-typed
	// argument is handed to a function outside the loaded set (sort.Slice
	// and friends usually invoke their callbacks in a loop).
	externalParamDepth = 1
)

// EdgeKind classifies how a call edge was resolved.
type EdgeKind uint8

const (
	// EdgeStatic is a direct call to a declared function or method.
	EdgeStatic EdgeKind = iota
	// EdgeClosure is a call to a function literal (immediate or through a
	// single-assignment local variable).
	EdgeClosure
	// EdgeDevirt is an interface call expanded to a concrete method; the
	// site's Fanout says how many targets share it.
	EdgeDevirt
	// EdgeBound connects a caller to a func-typed argument at the point
	// where the receiving function (transitively) invokes that parameter.
	EdgeBound
)

// String renders the kind for diagnostics.
func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeClosure:
		return "closure"
	case EdgeDevirt:
		return "devirt"
	case EdgeBound:
		return "bound"
	}
	return "invalid"
}

// Edge is one resolved call site.
type Edge struct {
	Caller *Node
	Callee *Node
	Pos    token.Pos
	// Depth is the loop-nest depth of the call site within the caller.
	Depth int
	// Fanout is 1 for direct calls and the number of devirtualization
	// targets for interface sites (frequency is split between them).
	Fanout int
	Kind   EdgeKind
}

// Node is one function in the graph: a declared function or method, a
// function literal, or an external function referenced but not loaded.
type Node struct {
	// ID is the unique, package-path-qualified name:
	// "tempest/internal/nas.btSolveAxis",
	// "tempest/internal/collect.(*Shipper).run",
	// "tempest/internal/nas.RunBTParams.func2" for literals.
	ID string
	// Sym is the package-name-qualified symbol in the instrumenter's
	// scheme ("nas.btSolveAxis", "collect.(*Shipper).run") — the form
	// tempest-instrument registers and FuncName reports.
	Sym     string
	PkgPath string
	Pos     token.Pos
	// External marks functions referenced but without a loaded body
	// (stdlib, packages outside the Load set). They have no Items.
	External bool
	// LoopDepth is the deepest loop nesting anywhere in the body.
	LoopDepth int
	// Items is the body's item tree (nil for external nodes).
	Items *Item
	// Out and In are the resolved call edges.
	Out []*Edge
	In  []*Edge
	// SCC is the index of the node's strongly connected component in
	// Graph.SCCs after Build.
	SCC int

	obj *types.Func
	// owner is the node a function literal is defined inside (nil for
	// declared functions): the lexical scope its captures resolve in.
	owner *Node
	// funcParams maps a parameter index to true when the parameter has
	// function type (candidates for invocation/forwarding analysis).
	funcParams map[int]bool
	// paramCalls maps a function-typed parameter index to the minimum
	// loop depth at which the function (transitively) invokes it; filled
	// by the forwarding fixpoint.
	paramCalls map[int]int
	// capturedCalls is the literal-node analogue for captured parameters:
	// indices in the enclosing declared function's parameter space that
	// this literal (transitively) invokes, with the depth inside the
	// literal. The fixpoint lifts them into the encloser's paramCalls at
	// the point the encloser hands the literal out.
	capturedCalls map[int]int
	visiting      bool
	onStack       bool
	index, low    int
}

// Graph is the built call graph.
type Graph struct {
	// Nodes maps Node.ID to the node, externals included.
	Nodes map[string]*Node
	// SCCs lists the strongly connected components in dependency order:
	// callees appear before their callers, so a bottom-up cost
	// propagation is a single forward sweep.
	SCCs [][]*Node

	byObj map[*types.Func]*Node
	// litNodes memoizes function-literal nodes so the argument resolver
	// and the expression walker agree on one node per literal.
	litNodes map[litKey]*Node
	// concreteTypes are the named non-interface types of the loaded
	// program, the devirtualization candidate set.
	concreteTypes []types.Type
}

// Build constructs the call graph for the loaded packages.
func Build(pkgs []*analysis.Package) (*Graph, error) {
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("callgraph: no packages")
	}
	g := &Graph{
		Nodes:    map[string]*Node{},
		byObj:    map[*types.Func]*Node{},
		litNodes: map[litKey]*Node{},
	}

	// Pass 1: declared functions become nodes; named concrete types are
	// collected for devirtualization.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj, _ := pkg.TypesInfo.Defs[d.Name].(*types.Func)
					if obj == nil {
						continue
					}
					n := g.newDeclNode(pkg, d, obj)
					g.Nodes[n.ID] = n
					g.byObj[obj] = n
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						tn, _ := pkg.TypesInfo.Defs[ts.Name].(*types.TypeName)
						if tn == nil || tn.IsAlias() {
							continue
						}
						if _, isIface := tn.Type().Underlying().(*types.Interface); !isIface {
							g.concreteTypes = append(g.concreteTypes, tn.Type())
						}
					}
				}
			}
		}
	}

	// Pass 2: build each body's item tree (creating closure nodes as
	// they are encountered) and flatten call items into edges.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || d.Body == nil {
					continue
				}
				obj := pkg.TypesInfo.Defs[d.Name].(*types.Func)
				n := g.byObj[obj]
				b := &bodyBuilder{g: g, pkg: pkg, node: n, locals: map[types.Object]*Node{}, killed: map[types.Object]bool{}}
				b.bindParams(d.Type)
				n.Items = b.buildBlock(d.Body, 0)
			}
		}
	}

	// The forwarding fixpoint needs every node's direct items in place
	// before bound edges can be synthesized.
	g.solveParamCalls()
	g.elaborateBindings()
	g.connectEdges()
	g.condense()
	return g, nil
}

// newDeclNode creates the node for a declared function or method.
func (g *Graph) newDeclNode(pkg *analysis.Package, d *ast.FuncDecl, obj *types.Func) *Node {
	recv := ""
	if d.Recv != nil && len(d.Recv.List) > 0 {
		t := d.Recv.List[0].Type
		ptr := false
		if star, ok := t.(*ast.StarExpr); ok {
			ptr = true
			t = star.X
		}
		base := "?"
		if id, ok := stripIndex(t).(*ast.Ident); ok {
			base = id.Name
		}
		if ptr {
			recv = "(*" + base + ")."
		} else {
			recv = base + "."
		}
	}
	return &Node{
		ID:            pkg.PkgPath + "." + recv + d.Name.Name,
		Sym:           pkg.Types.Name() + "." + recv + d.Name.Name,
		PkgPath:       pkg.PkgPath,
		Pos:           d.Pos(),
		obj:           obj,
		funcParams:    funcParamSet(obj),
		paramCalls:    map[int]int{},
		capturedCalls: map[int]int{},
	}
}

// nodeForObj resolves a *types.Func (generic instantiations through
// Origin, wrapper-free) to its node, creating an external stub for
// functions outside the loaded set.
func (g *Graph) nodeForObj(obj *types.Func) *Node {
	if obj == nil {
		return nil
	}
	if o := obj.Origin(); o != nil {
		obj = o
	}
	if n, ok := g.byObj[obj]; ok {
		return n
	}
	// External: synthesize a stable ID from the object.
	id := externalID(obj)
	if n, ok := g.Nodes[id]; ok {
		g.byObj[obj] = n
		return n
	}
	pkgPath, pkgName := "", ""
	if obj.Pkg() != nil {
		pkgPath, pkgName = obj.Pkg().Path(), obj.Pkg().Name()
	}
	n := &Node{
		ID:            id,
		Sym:           strings.TrimPrefix(id, pkgPath),
		PkgPath:       pkgPath,
		External:      true,
		obj:           obj,
		funcParams:    funcParamSet(obj),
		paramCalls:    map[int]int{},
		capturedCalls: map[int]int{},
	}
	if pkgName != "" {
		n.Sym = pkgName + strings.TrimPrefix(id, pkgPath)
	}
	g.Nodes[id] = n
	g.byObj[obj] = n
	return n
}

// externalID renders the path-qualified ID for an unloaded function.
func externalID(obj *types.Func) string {
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Path()
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := false
		if p, ok := t.(*types.Pointer); ok {
			ptr = true
			t = p.Elem()
		}
		name := "?"
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name()
		}
		if ptr {
			return fmt.Sprintf("%s.(*%s).%s", pkg, name, obj.Name())
		}
		return fmt.Sprintf("%s.%s.%s", pkg, name, obj.Name())
	}
	return pkg + "." + obj.Name()
}

// funcParamSet records which parameter indices have function type.
func funcParamSet(obj *types.Func) map[int]bool {
	out := map[int]bool{}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return out
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if _, ok := sig.Params().At(i).Type().Underlying().(*types.Signature); ok {
			out[i] = true
		}
	}
	return out
}

// NodeByObj returns the node for a function object already in the graph
// (declared functions after Build), nil if absent. Unlike the internal
// resolver it never creates external stubs.
func (g *Graph) NodeByObj(obj *types.Func) *Node {
	if obj == nil {
		return nil
	}
	if o := obj.Origin(); o != nil {
		obj = o
	}
	return g.byObj[obj]
}

// Roots returns the loaded (non-external, non-closure) nodes with no
// incoming edges, sorted by ID — the default entry set for frequency
// propagation.
func (g *Graph) Roots() []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.External || n.Items == nil {
			continue
		}
		if strings.Contains(n.ID, ".func") && n.Lit() {
			continue
		}
		if len(n.In) == 0 {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lit reports whether the node is a function literal.
func (n *Node) Lit() bool { return n.obj == nil }

// Owner returns the node a literal is defined inside, nil for declared
// functions.
func (n *Node) Owner() *Node { return n.owner }

// VisitItems applies fn to every item of the body tree, pre-order.
// No-op for external nodes.
func (n *Node) VisitItems(fn func(*Item)) { n.Items.visit(fn) }

// solveParamCalls runs the forwarding fixpoint: paramCalls[f][i] is the
// minimum loop depth at which f (transitively through forwarding)
// invokes its i-th parameter.
func (g *Graph) solveParamCalls() {
	changed := true
	for iter := 0; changed && iter < 32; iter++ {
		changed = false
		for _, n := range g.Nodes {
			if n.Items == nil {
				continue
			}
			n.Items.visit(func(it *Item) {
				if it.Kind != ItemCall {
					return
				}
				if it.ParamCallee >= 0 {
					// Captured indices live in the encloser's space and
					// accumulate separately until lifted below.
					m := n.paramCalls
					if it.Captured {
						m = n.capturedCalls
					}
					if merge(m, it.ParamCallee, it.Depth) {
						changed = true
					}
				}
				// Direct call of an own literal: its captured-parameter
				// invocations become ours at the call site's depth.
				if it.Callee != nil && it.Callee.owner == n {
					if g.liftCaptures(n, it.Callee, it.Depth) {
						changed = true
					}
				}
				for j, fa := range it.FuncArgs {
					// Forwarding: n passes its own parameter p as the j-th
					// argument of callee c, and c invokes parameter j.
					if fa.Param >= 0 && it.Callee != nil {
						if d, ok := it.Callee.paramDepth(j, externalParamDepth); ok {
							if merge(n.paramCalls, fa.Param, it.Depth+d) {
								changed = true
							}
						}
					}
					// Handing out an own literal: wherever the receiver
					// invokes it, the literal's captured-parameter calls
					// land back on n.
					if fa.Node != nil && fa.Node.owner == n {
						d, ok := externalParamDepth, true
						if it.Callee != nil {
							d, ok = it.Callee.paramDepth(j, externalParamDepth)
						} else if it.ParamCallee >= 0 {
							ok = false // routed through our own parameter: opaque
						}
						if ok && g.liftCaptures(n, fa.Node, it.Depth+d) {
							changed = true
						}
					}
				}
			})
		}
	}
}

// liftCaptures merges a literal's captured-parameter invocations into
// its encloser n, offset by the depth at which n causes the literal to
// run. For nested literals n is itself a literal and the indices stay in
// capture space, walking outward one level per fixpoint round.
func (g *Graph) liftCaptures(n, lit *Node, depth int) bool {
	target := n.paramCalls
	if n.Lit() {
		target = n.capturedCalls
	}
	changed := false
	for i, dL := range lit.capturedCalls {
		if merge(target, i, depth+dL) {
			changed = true
		}
	}
	return changed
}

// paramDepth reports the depth at which the function invokes parameter
// j. External functions are assumed to invoke their func params at the
// configured default depth (sort.Slice calls its comparator in a loop).
func (n *Node) paramDepth(j int, externalDefault int) (int, bool) {
	if n.External {
		if n.funcParams[j] {
			return externalDefault, true
		}
		return 0, false
	}
	d, ok := n.paramCalls[j]
	return d, ok
}

// merge lowers m[k] to d, reporting whether anything changed.
func merge(m map[int]int, k, d int) bool {
	if old, ok := m[k]; !ok || d < old {
		m[k] = d
		return true
	}
	return false
}

// elaborateBindings turns func-typed arguments into bound call items:
// when f passes closure X to g and g invokes that parameter at depth d,
// f effectively calls X at siteDepth+d.
func (g *Graph) elaborateBindings() {
	for _, n := range g.Nodes {
		if n.Items == nil {
			continue
		}
		var synth []*Item
		n.Items.visit(func(it *Item) {
			if it.Kind != ItemCall {
				return
			}
			for j, fa := range it.FuncArgs {
				if fa.Node == nil {
					continue
				}
				var callee *Node
				var d int
				var ok bool
				switch {
				case it.Callee != nil:
					d, ok = it.Callee.paramDepth(j, externalParamDepth)
					callee = fa.Node
				case it.ParamCallee >= 0:
					// Passing a func to a call through one of our own
					// parameters: unknowable statically; skip.
				default:
					// Unresolved call target holding a func arg: assume it
					// invokes the callback at the external default depth.
					d, ok = externalParamDepth, true
					callee = fa.Node
				}
				if !ok || callee == nil {
					continue
				}
				synth = append(synth, &Item{
					Kind:   ItemCall,
					Depth:  it.Depth + d,
					Pos:    it.Pos,
					Callee: callee,
					Bound:  true,

					ParamCallee: -1,
				})
			}
		})
		n.Items.Children = append(n.Items.Children, synth...)
	}
}

// connectEdges flattens call items into graph edges.
func (g *Graph) connectEdges() {
	var nodes []*Node
	for _, n := range g.Nodes {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	for _, n := range nodes {
		if n.Items == nil {
			continue
		}
		caller := n
		caller.Items.visit(func(it *Item) {
			if it.Kind != ItemCall {
				return
			}
			kind := EdgeStatic
			if it.Bound {
				kind = EdgeBound
			}
			switch {
			case it.Callee != nil:
				if it.Callee.Lit() {
					kind = EdgeClosure
				}
				if it.Bound {
					kind = EdgeBound
				}
				e := &Edge{Caller: caller, Callee: it.Callee, Pos: it.Pos, Depth: it.Depth, Fanout: 1, Kind: kind}
				caller.Out = append(caller.Out, e)
				it.Callee.In = append(it.Callee.In, e)
			case len(it.Targets) > 0:
				for _, t := range it.Targets {
					e := &Edge{Caller: caller, Callee: t, Pos: it.Pos, Depth: it.Depth, Fanout: len(it.Targets), Kind: EdgeDevirt}
					caller.Out = append(caller.Out, e)
					t.In = append(t.In, e)
				}
			}
		})
	}
}

// condense runs Tarjan's SCC algorithm, filling Node.SCC and Graph.SCCs
// in dependency order (callees before callers).
func (g *Graph) condense() {
	var ids []string
	for id := range g.Nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	index := 1
	var stack []*Node
	var sccs [][]*Node
	var strongconnect func(n *Node)
	strongconnect = func(v *Node) {
		v.index, v.low = index, index
		index++
		stack = append(stack, v)
		v.onStack = true
		for _, e := range v.Out {
			w := e.Callee
			if w.index == 0 {
				strongconnect(w)
				if w.low < v.low {
					v.low = w.low
				}
			} else if w.onStack && w.index < v.low {
				v.low = w.index
			}
		}
		if v.low == v.index {
			var scc []*Node
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				w.onStack = false
				w.SCC = len(sccs)
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Slice(scc, func(i, j int) bool { return scc[i].ID < scc[j].ID })
			sccs = append(sccs, scc)
		}
	}
	for _, id := range ids {
		if n := g.Nodes[id]; n.index == 0 {
			strongconnect(n)
		}
	}
	g.SCCs = sccs
}

// stripIndex unwraps generic receiver forms T[P] / T[P1, P2].
func stripIndex(t ast.Expr) ast.Expr {
	for {
		switch v := t.(type) {
		case *ast.IndexExpr:
			t = v.X
		case *ast.IndexListExpr:
			t = v.X
		default:
			return t
		}
	}
}
