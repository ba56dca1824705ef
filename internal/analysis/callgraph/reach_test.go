package callgraph_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"tempest/internal/analysis"
)

// Why an unreached declaration may stay. There are three reasons and no
// others: code whose only caller is a test of that same code goes.
const (
	// testSupport: a package or helper that exists to drive tests of
	// other packages (fault injection, trace generators, fixtures).
	testSupport = "test support"
	// reference: the straightforward implementation a test holds a
	// faster or streaming one against.
	reference = "reference a test compares against"
	// counter: an accessor for state that production code maintains
	// for a reason of its own (a /metrics counter, a fault tally, a
	// served summary); tests read it to check that reason.
	counter = "counter production maintains and tests read"
)

// allowed lists every non-test declaration that no binary, paper
// benchmark or public API reaches and that stays anyway. A key names one
// declaration ("pkgpath.Name", "pkgpath.(*T).M", "pkgpath.T.M") or, ending
// in "/", every declaration of one package.
var allowed = map[string]string{
	"tempest/internal/faultinject/":                        testSupport,
	"tempest/internal/tracegen/":                           testSupport,
	"tempest/internal/analysis/analysistest/":              testSupport,
	"tempest/examples/autoinstr/workload/":                 testSupport,
	"tempest/internal/critpath.AnalyzeTrace":               reference,
	"tempest/internal/parser.MergeIntervals":               reference,
	"tempest/internal/trace.(*Trace).WriteSegmented":       reference,
	"tempest/internal/collect.(*Collector).Metrics":        counter,
	"tempest/internal/collect.(*Metrics).Segments":         counter,
	"tempest/internal/collect.(*Metrics).Events":           counter,
	"tempest/internal/collect.(*Metrics).Bytes":            counter,
	"tempest/internal/collect.(*Metrics).DedupDrops":       counter,
	"tempest/internal/collect.(*Metrics).IngestErrors":     counter,
	"tempest/internal/collect.(*Metrics).EncodeErrors":     counter,
	"tempest/internal/collect.(*Metrics).StreamAborts":     counter,
	"tempest/internal/critpath.(*Analyzer).Events":         counter,
	"tempest/internal/critpath.(*Analyzer).StackAnomalies": counter,
	"tempest/internal/critpath.(*Analyzer).OrderAnomalies": counter,
	"tempest/internal/critpath.(*Summary).Function":        counter,
	"tempest/internal/critpath.(*Summary).Op":              counter,
}

// TestEveryDeclarationIsReached is the reachability gate. It loads the
// module plus the pipeline benchmark driver and computes the reference
// closure from every non-test main and init, the exported API of tempest
// and tempest/instrument, and the root package's paper benchmarks. A
// method is reached when it is referenced, or when its receiver type is
// reached and the method implements an interface the program declares
// and reaches, or one its imports declare. A constant in an iota block
// is reached with its block, and a name a file for another platform
// mentions is reached. Any other non-test declaration must be
// reached or listed in allowed, and every entry in allowed must still
// name a declaration that exists and is not reached.
func TestEveryDeclarationIsReached(t *testing.T) {
	r, err := loaded()
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	var unreached []*declInfo
	lines := 0
	for _, d := range r.decls {
		if d.test || d.pkg == "tempest/_bench" || r.reached[d.obj] {
			continue
		}
		if key := allowKey(d); key != "" {
			used[key] = true
			continue
		}
		unreached = append(unreached, d)
		lines += d.lines
	}
	sort.Slice(unreached, func(i, j int) bool { return unreached[i].key < unreached[j].key })
	for _, d := range unreached {
		t.Errorf("%s: %s is reached by no binary, paper benchmark or public API (%d lines)", d.pos, d.key, d.lines)
	}
	if len(unreached) > 0 {
		t.Errorf("%d unreached declarations, %d lines: delete them with the tests that exercise only them", len(unreached), lines)
	}

	for key, why := range allowed {
		if !used[key] {
			t.Errorf("allowed[%q] (%s) is stale: the declaration is reached or no longer exists", key, why)
		}
	}
}

// loaded is the module plus the pipeline benchmark driver, with its
// reach closure: built once for both gates.
var loaded = sync.OnceValues(func() (*reach, error) {
	pkgs, err := analysis.Load(analysis.LoadConfig{Dir: ".", IncludeTests: true}, "./...", "./_bench")
	if err != nil {
		return nil, err
	}
	r := newReach(pkgs)
	if err := r.taggedOut(); err != nil {
		return nil, err
	}
	r.close()
	return r, nil
})

// allowKey returns the allowed entry covering d, or "".
func allowKey(d *declInfo) string {
	if _, ok := allowed[d.key]; ok {
		return d.key
	}
	if _, ok := allowed[d.pkg+"/"]; ok {
		return d.pkg + "/"
	}
	return ""
}

// Why an exported field that no reached code sets may stay. There are
// three reasons and no others: a field that only selects a path no
// binary takes goes, and one nobody sets becomes a constant.
const (
	seam      = "test seam: a clock, sleep, dialer, writer wrapper or fixture root a test substitutes"
	shrunk    = "a wait, count or size a test shrinks so it runs fast"
	safetyOff = "safety check, off by default: turning it on or deleting it changes behaviour"
)

// allowedFields lists every exported option field that reached code
// reads but never sets, keyed "pkgpath.Type.Field".
var allowedFields = map[string]string{
	"tempest/internal/analysis.LoadConfig.ExtraRoot":           seam,
	"tempest/internal/collect.Options.Now":                     seam,
	"tempest/internal/collect.ShipperOptions.Sleep":            seam,
	"tempest/internal/sensors.ResilientConfig.Sleep":           seam,
	"tempest/internal/store.Options.WrapWriter":                seam,
	"tempest/internal/collect.ShipperOptions.DialBackoffBase":  shrunk,
	"tempest/internal/collect.ShipperOptions.DialBackoffMax":   shrunk,
	"tempest/internal/collect.ShipperOptions.QueueLen":         shrunk,
	"tempest/internal/sensors.ResilientConfig.BackoffBase":     shrunk,
	"tempest/internal/sensors.ResilientConfig.BackoffMax":      shrunk,
	"tempest/internal/sensors.ResilientConfig.MaxRetries":      shrunk,
	"tempest/internal/sensors.ResilientConfig.ProbeEvery":      shrunk,
	"tempest/internal/sensors.ResilientConfig.QuarantineAfter": shrunk,
	"tempest/internal/report.PlotOptions.Width":                shrunk,
	"tempest/internal/report.PlotOptions.Height":               shrunk,
	"tempest/internal/sensors.ResilientConfig.StuckLimit":      safetyOff,
}

// TestEveryOptionIsSet is the field-level gate. It checks every exported
// field of a struct declared in a non-test file of a module package,
// other than the public API's and the test-support packages': if reached
// code reads the field, reached code must also set it to something
// other than a zero literal (false, 0, "", nil). A write by the type's
// own withDefaults does not count. A write is an assignment, op=, ++ or
// --, a composite-literal element, &x.F, a pointer-method call on x.F or
// an index or slice of x.F. Any other such field must be listed in
// allowedFields, and every entry there must still name one.
func TestEveryOptionIsSet(t *testing.T) {
	r, err := loaded()
	if err != nil {
		t.Fatal(err)
	}
	// owner maps each checked field to the named type declaring it.
	owner := map[*types.Var]*types.Named{}
	for _, d := range r.decls {
		tn, ok := d.obj.(*types.TypeName)
		if !ok || d.test || d.pkg == "tempest" || d.pkg == "tempest/instrument" || d.pkg == "tempest/_bench" || allowed[d.pkg+"/"] == testSupport {
			continue
		}
		named, _ := tn.Type().(*types.Named)
		if st, ok := tn.Type().Underlying().(*types.Struct); ok && named != nil {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					owner[f] = named
				}
			}
		}
	}
	read, set := map[*types.Var]bool{}, map[*types.Var]bool{}
	for _, d := range r.decls {
		if r.reached[d.obj] {
			fieldUses(d, owner, read, set)
		}
	}

	used := map[string]bool{}
	var unset []string
	for f, named := range owner {
		if !read[f] || set[f] {
			continue
		}
		key := fmt.Sprintf("%s.%s.%s", named.Obj().Pkg().Path(), named.Obj().Name(), f.Name())
		if _, ok := allowedFields[key]; ok {
			used[key] = true
		} else {
			unset = append(unset, fmt.Sprintf("%s: %s is read but no binary, paper benchmark or public API sets it", r.pkgs[0].Fset.Position(f.Pos()), key))
		}
	}
	sort.Strings(unset)
	for _, msg := range unset {
		t.Error(msg)
	}
	if len(unset) > 0 {
		t.Errorf("%d of %d exported fields are never set: make each a constant, or delete it with the path it selects", len(unset), len(owner))
	}
	for key, why := range allowedFields {
		if !used[key] {
			t.Errorf("allowedFields[%q] (%s) is stale: the field is set, unread or gone", key, why)
		}
	}
}

// fieldUses records which checked fields d's syntax reads and sets.
func fieldUses(d *declInfo, owner map[*types.Var]*types.Named, read, set map[*types.Var]bool) {
	info := d.info
	// withDefaults fills in its own type's zero fields: not a setting.
	var defaults *types.Named
	if fn, ok := d.obj.(*types.Func); ok && fn.Name() == "withDefaults" {
		defaults = recvNamed(fn.Type().(*types.Signature).Recv().Type())
	}
	write := func(f *types.Var, val ast.Expr) {
		if named, ok := owner[f]; ok && named != defaults && (val == nil || !zeroLiteral(info, val)) {
			set[f] = true
		}
	}
	var stack []ast.Node
	ast.Inspect(d.node, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CompositeLit:
			st, ok := info.TypeOf(n).Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if f, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						write(f.Origin(), kv.Value)
					}
				} else {
					write(st.Field(i).Origin(), el)
				}
			}
		case *ast.SelectorExpr:
			sel := info.Selections[n]
			if sel == nil || sel.Kind() != types.FieldVal {
				break
			}
			f := sel.Obj().(*types.Var).Origin()
			r, w, val := fieldAccess(info, stack)
			if r {
				read[f] = true
			}
			if w {
				write(f, val)
			}
		}
		return true
	})
}

// fieldAccess classifies the field selector on top of stack: whether
// the expression reads the field, writes it, and the value a plain
// assignment stores.
func fieldAccess(info *types.Info, stack []ast.Node) (read, write bool, val ast.Expr) {
	e := stack[len(stack)-1]
	through := false // the write lands in an element or field of the field
	for i := len(stack) - 2; i >= 0; e, i = stack[i], i-1 {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
		case *ast.IndexExpr:
			if p.X != e {
				return true, false, nil
			}
			through = true
		case *ast.SliceExpr:
			return true, p.X == e, nil
		case *ast.SelectorExpr:
			sel := info.Selections[p]
			if sel != nil && sel.Kind() == types.MethodVal {
				_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
				_, ptrField := info.TypeOf(e.(ast.Expr)).Underlying().(*types.Pointer)
				return true, ptrRecv && !ptrField, nil
			}
			through = true
		case *ast.UnaryExpr:
			return true, p.Op == token.AND, nil
		case *ast.IncDecStmt:
			return true, true, nil
		case *ast.AssignStmt:
			for j, lhs := range p.Lhs {
				if lhs != e {
					continue
				}
				if p.Tok != token.ASSIGN || through {
					return true, true, nil
				}
				if len(p.Rhs) == len(p.Lhs) {
					val = p.Rhs[j]
				}
				return false, true, val
			}
			return true, false, nil
		default:
			return true, false, nil
		}
	}
	return true, false, nil
}

// zeroLiteral reports whether e is written false, nil, "" or a zero
// number.
func zeroLiteral(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return (e.Name == "false" || e.Name == "nil") && info.Uses[e] == types.Universe.Lookup(e.Name)
	case *ast.BasicLit:
		v := info.Types[e].Value
		if v.Kind() == constant.String {
			return constant.StringVal(v) == ""
		}
		return constant.Sign(v) == 0
	}
	return false
}

// declInfo is one package-level declaration or method of a loaded
// module package.
type declInfo struct {
	key   string
	pkg   string
	obj   types.Object
	pos   token.Position
	lines int
	test  bool // declared in a _test.go file
	node  ast.Node
	info  *types.Info
	// refs are the objects the declaration's syntax refers to.
	refs []types.Object
	// block are the constants of the declaration's iota block.
	block []types.Object
}

type reach struct {
	pkgs    []*analysis.Package
	decls   []*declInfo
	byObj   map[types.Object]*declInfo
	reached map[types.Object]bool
	roots   []types.Object
}

func newReach(pkgs []*analysis.Package) *reach {
	r := &reach{pkgs: pkgs, byObj: map[types.Object]*declInfo{}, reached: map[types.Object]bool{}}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			test := strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go")
			for _, decl := range f.Decls {
				r.addDecl(pkg, decl, test)
			}
		}
	}
	return r
}

func (r *reach) addDecl(pkg *analysis.Package, decl ast.Decl, test bool) {
	api := !test && (pkg.PkgPath == "tempest" || pkg.PkgPath == "tempest/instrument")
	add := func(name *ast.Ident, node ast.Node, doc *ast.CommentGroup) *declInfo {
		obj := pkg.TypesInfo.Defs[name]
		if obj == nil {
			return nil
		}
		start := node.Pos()
		if doc != nil {
			start = doc.Pos()
		}
		d := &declInfo{
			key:   declKey(obj),
			pkg:   pkg.PkgPath,
			obj:   obj,
			pos:   pkg.Fset.Position(name.Pos()),
			lines: pkg.Fset.Position(node.End()).Line - pkg.Fset.Position(start).Line + 1,
			test:  test,
			node:  node,
			info:  pkg.TypesInfo,
			refs:  refsOf(pkg.TypesInfo, node),
		}
		r.decls = append(r.decls, d)
		r.byObj[obj] = d
		if api && exportedAPI(obj) {
			r.roots = append(r.roots, obj)
		}
		return d
	}
	switch decl := decl.(type) {
	case *ast.FuncDecl:
		d := add(decl.Name, decl, decl.Doc)
		if d == nil {
			return
		}
		name := decl.Name.Name
		bench := test && pkg.PkgPath == "tempest" && strings.HasPrefix(name, "Benchmark")
		entry := !test && decl.Recv == nil && (name == "init" || name == "main" && pkg.Types.Name() == "main")
		if bench || entry {
			r.roots = append(r.roots, d.obj)
		}
	case *ast.GenDecl:
		// A lone spec's doc comment sits on the declaration.
		specDoc := func(doc *ast.CommentGroup) *ast.CommentGroup {
			if doc == nil && len(decl.Specs) == 1 {
				return decl.Doc
			}
			return doc
		}
		var block []*declInfo
		iota := false
		for _, spec := range decl.Specs {
			switch spec := spec.(type) {
			case *ast.TypeSpec:
				add(spec.Name, spec, specDoc(spec.Doc))
			case *ast.ValueSpec:
				doc := specDoc(spec.Doc)
				for _, name := range spec.Names {
					if name.Name == "_" {
						// A blank variable runs at package initialisation.
						if !test {
							for _, obj := range refsOf(pkg.TypesInfo, spec) {
								r.roots = append(r.roots, obj)
							}
						}
						continue
					}
					if d := add(name, spec, doc); d != nil && decl.Tok == token.CONST {
						block = append(block, d)
					}
				}
				for _, v := range spec.Values {
					ast.Inspect(v, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
							iota = true
						}
						return true
					})
				}
			}
		}
		if iota {
			var objs []types.Object
			for _, d := range block {
				objs = append(objs, d.obj)
			}
			for _, d := range block {
				d.block = objs
			}
		}
	}
}

// exportedAPI reports whether obj is part of its package's exported
// API: an exported function, or an exported method of an exported type.
func exportedAPI(obj types.Object) bool {
	if !obj.Exported() {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return true
	}
	named := recvNamed(sig.Recv().Type())
	return named != nil && named.Obj().Exported()
}

// refsOf collects the objects the syntax under node refers to.
func refsOf(info *types.Info, node ast.Node) []types.Object {
	var out []types.Object
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				out = append(out, origin(obj))
			}
		}
		return true
	})
	return out
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// declKey names obj the way the allow-list and the failures do.
func declKey(obj types.Object) string {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	recv := sig.Recv().Type()
	name := recvNamed(recv).Obj().Name()
	if _, ptr := recv.(*types.Pointer); ptr {
		return fmt.Sprintf("%s.(*%s).%s", obj.Pkg().Path(), name, obj.Name())
	}
	return fmt.Sprintf("%s.%s.%s", obj.Pkg().Path(), name, obj.Name())
}

// taggedOut roots every declaration named in a file the build
// constraints leave out on this platform (another architecture's lane
// key or clock): the analysis sees one platform, the program runs on
// several.
func (r *reach) taggedOut() error {
	for _, pkg := range r.pkgs {
		entries, err := os.ReadDir(pkg.Dir)
		if err != nil {
			return err
		}
		names := map[string]bool{}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			if match, err := build.Default.MatchFile(pkg.Dir, name); err != nil || match {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(pkg.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					names[id.Name] = true
				}
				return true
			})
		}
		if len(names) == 0 {
			continue
		}
		for _, d := range r.decls {
			if d.pkg == pkg.PkgPath && names[d.obj.Name()] {
				r.roots = append(r.roots, d.obj)
			}
		}
	}
	return nil
}

// close computes the reached set: references first, then methods that
// reached types need to satisfy an interface, until neither adds more.
func (r *reach) close() {
	work := append([]types.Object(nil), r.roots...)
	for {
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			if r.reached[obj] {
				continue
			}
			r.reached[obj] = true
			if d := r.byObj[obj]; d != nil {
				work = append(work, d.refs...)
				work = append(work, d.block...)
			}
		}
		for _, m := range r.interfaceMethods() {
			if !r.reached[m] {
				work = append(work, m)
			}
		}
		if len(work) == 0 {
			return
		}
	}
}

// interfaceMethods returns the methods through which reached concrete
// types satisfy the interfaces in play: every interface an imported
// package declares, and every one the program declares and reaches.
func (r *reach) interfaceMethods() []types.Object {
	var ifaces []*types.Interface
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package, module bool)
	visit = func(p *types.Package, module bool) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || (module && !r.reached[tn]) {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
					continue
				}
				ifaces = append(ifaces, it)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp, imp.Path() == "tempest" || strings.HasPrefix(imp.Path(), "tempest/"))
		}
	}
	for _, pkg := range r.pkgs {
		visit(pkg.Types, true)
	}

	var out []types.Object
	for _, d := range r.decls {
		tn, ok := d.obj.(*types.TypeName)
		if !ok || !r.reached[tn] {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) || named.TypeParams().Len() > 0 {
			continue
		}
		ptr := types.NewPointer(named)
		ms := types.NewMethodSet(ptr)
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil {
					out = append(out, origin(sel.Obj()))
				}
			}
		}
	}
	return out
}
