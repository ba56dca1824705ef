// Package instrumenter is the source-to-source half of Tempest's
// automatic instrumentation: it rewrites a Go package so every selected
// function opens with
//
//	defer instrument.Trace(tempestInstrSlots[i])()
//
// and emits a generated registration file binding those slots to
// package-qualified symbol names — the Go equivalent of compiling with
// `-finstrument-functions`, performed on source instead of in the
// compiler.
//
// Rewrites are text splices at AST-derived offsets rather than AST
// printing, so the original formatting and comments survive untouched;
// the result is then gofmt'd. Two output modes:
//
//   - copy mode (Options.OutDir): the package's non-test files are
//     rewritten into OutDir as a compilable sibling package;
//   - in-place mode: each touched file f.go gains a `//go:build
//     !<tag>` constraint and an instrumented twin f_<tag>.go carrying
//     `//go:build <tag>`, so `go build -tags <tag>` selects the
//     instrumented package and a plain build is byte-identical to the
//     uninstrumented one.
//
// The rewriter is idempotent: functions already opening with a Trace
// prologue, generated registration files and instrumented twins are all
// skipped.
package instrumenter

import (
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"tempest/internal/analysis"
	"tempest/internal/analysis/costmodel"
)

// DefaultBuildTag selects instrumented twins in in-place mode.
const DefaultBuildTag = "tempest_instr"

// RegFileName is the generated registration file's base name; the "zz_"
// prefix keeps it last in directory listings and out of the way.
const RegFileName = "zz_tempest_instr.go"

// slotsVar is the generated slot-table variable the prologues index.
const slotsVar = "tempestInstrSlots"

// runtimePkg is the import path of the runtime hook package.
const runtimePkg = "tempest/instrument"

// Options configures one Instrument run.
type Options struct {
	// Match restricts instrumentation to function symbols matching the
	// pattern (nil: every function). Matched against the registered
	// symbol, e.g. "workload.Work" or "workload.(*Pool).Run".
	Match *regexp.Regexp
	// Exclude drops matching symbols after Match selection.
	Exclude *regexp.Regexp
	// OutDir, when non-empty, selects copy mode with this destination
	// directory. Empty selects in-place build-tagged mode.
	OutDir string
	// BuildTag overrides DefaultBuildTag in in-place mode.
	BuildTag string
	// Plan, when non-nil, lets the static cost model drive per-function
	// decisions: symbols the plan marks "skip" get no prologue at all,
	// and "coarse" symbols are instrumented but registered with a
	// coarse-mode override so they only maintain call/time buckets.
	Plan *costmodel.Plan
}

// OutFile is one file the rewrite wants on disk.
type OutFile struct {
	// Path is the destination, absolute or relative to the working
	// directory.
	Path string
	// Content is the full new file content.
	Content []byte
	// Overwrite marks files that replace an existing file (in-place
	// originals gaining a build constraint).
	Overwrite bool
}

// Result describes one instrumented package.
type Result struct {
	PkgName string
	PkgPath string
	// Funcs lists the instrumented symbols in slot order.
	Funcs []string
	// Coarse lists the subset of Funcs the plan demoted to coarse mode.
	Coarse []string
	// Skipped lists symbols the plan left uninstrumented.
	Skipped []string
	// Files are the outputs to write, in deterministic order.
	Files []OutFile
}

// Instrument rewrites the package in dir according to opts. Nothing is
// written; the caller applies Result.Files (see Apply).
func Instrument(dir string, opts Options) (*Result, error) {
	if opts.BuildTag == "" {
		opts.BuildTag = DefaultBuildTag
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var goFiles []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if name == RegFileName || strings.HasSuffix(name, "_"+opts.BuildTag+".go") {
			continue // our own previous output
		}
		goFiles = append(goFiles, name)
	}
	sort.Strings(goFiles)
	if len(goFiles) == 0 {
		return nil, fmt.Errorf("instrumenter: no Go files in %s", dir)
	}

	res := &Result{PkgPath: pkgPath(dir)}
	fset := token.NewFileSet()
	slot := 0
	skippedOwn := 0
	for _, name := range goFiles {
		path := filepath.Join(dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if res.PkgName == "" {
			res.PkgName = f.Name.Name
		} else if f.Name.Name != res.PkgName {
			return nil, fmt.Errorf("instrumenter: %s: package %s, expected %s", path, f.Name.Name, res.PkgName)
		}

		if opts.OutDir == "" && hasOwnConstraint(f, opts.BuildTag) {
			// In-place re-run: this original was already processed and
			// its twin carries the instrumentation.
			skippedOwn++
			continue
		}
		rewritten, symbols, fileSkipped, err := rewriteFile(fset, f, src, res.PkgName, opts, &slot)
		if err != nil {
			return nil, err
		}
		res.Funcs = append(res.Funcs, symbols...)
		res.Skipped = append(res.Skipped, fileSkipped...)
		switch {
		case opts.OutDir != "":
			// Copy mode ships every file so the output is a complete
			// package, rewritten or not.
			out := src
			if rewritten != nil {
				out = rewritten
			}
			res.Files = append(res.Files, OutFile{Path: filepath.Join(opts.OutDir, name), Content: out})
		case rewritten != nil:
			// In-place mode: constrain the original, add the twin.
			if constrained(f) {
				return nil, fmt.Errorf("instrumenter: %s already carries a build constraint; in-place mode cannot stack another", path)
			}
			orig := append([]byte("//go:build !"+opts.BuildTag+"\n\n"), src...)
			twinName := strings.TrimSuffix(name, ".go") + "_" + opts.BuildTag + ".go"
			twin := append([]byte("//go:build "+opts.BuildTag+"\n\n"), rewritten...)
			twin, err = format.Source(twin)
			if err != nil {
				return nil, fmt.Errorf("instrumenter: formatting %s: %w", twinName, err)
			}
			res.Files = append(res.Files,
				OutFile{Path: path, Content: orig, Overwrite: true},
				OutFile{Path: filepath.Join(dir, twinName), Content: twin},
			)
		}
	}
	if len(res.Funcs) == 0 {
		if skippedOwn > 0 {
			// Everything was already instrumented by a prior in-place
			// run: idempotent no-op.
			res.Files = nil
			return res, nil
		}
		return nil, fmt.Errorf("instrumenter: no functions in %s match the filter", dir)
	}

	if opts.Plan != nil {
		for _, fn := range res.Funcs {
			if opts.Plan.Mode(fn) == "coarse" {
				res.Coarse = append(res.Coarse, fn)
			}
		}
	}
	reg, err := registrationFile(res, opts)
	if err != nil {
		return nil, err
	}
	regDir := dir
	if opts.OutDir != "" {
		regDir = opts.OutDir
	}
	res.Files = append(res.Files, OutFile{Path: filepath.Join(regDir, RegFileName), Content: reg})
	return res, nil
}

// Apply writes every output file, creating directories as needed. Files
// not marked Overwrite must not already exist.
func Apply(res *Result) error {
	for _, f := range res.Files {
		if err := os.MkdirAll(filepath.Dir(f.Path), 0o755); err != nil {
			return err
		}
		if !f.Overwrite {
			if _, err := os.Stat(f.Path); err == nil {
				return fmt.Errorf("instrumenter: refusing to overwrite %s", f.Path)
			}
		}
		if err := os.WriteFile(f.Path, f.Content, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// rewriteFile splices Trace prologues into f. It returns the new
// content (nil when no function was instrumented) and the instrumented
// symbols in declaration order, advancing *slot across files.
func rewriteFile(fset *token.FileSet, f *ast.File, src []byte, pkgName string, opts Options, slot *int) ([]byte, []string, []string, error) {
	type splice struct {
		offset int
		text   string
	}
	var splices []splice
	var symbols, skipped []string

	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || fd.Name.Name == "init" {
			continue
		}
		sym := symbolName(pkgName, fd)
		if opts.Match != nil && !opts.Match.MatchString(sym) {
			continue
		}
		if opts.Exclude != nil && opts.Exclude.MatchString(sym) {
			continue
		}
		if opts.Plan != nil && opts.Plan.Mode(sym) == "skip" {
			skipped = append(skipped, sym)
			continue
		}
		if hasTracePrologue(fd) {
			continue
		}
		offset := fset.Position(fd.Body.Lbrace).Offset + 1
		splices = append(splices, splice{
			offset: offset,
			text:   fmt.Sprintf("\n\tdefer instrument.Trace(%s[%d])()\n", slotsVar, *slot),
		})
		symbols = append(symbols, sym)
		*slot++
	}
	if len(splices) == 0 {
		return nil, nil, skipped, nil
	}

	if ident := fileDeclares(f, "instrument"); ident {
		return nil, nil, nil, fmt.Errorf("instrumenter: %s declares or imports the identifier %q, which the injected prologue needs",
			fset.Position(f.Pos()).Filename, "instrument")
	}
	// Import the runtime package as a standalone decl right after the
	// package clause — legal Go regardless of existing import blocks —
	// unless the file already imports it.
	if !importsPath(f, runtimePkg) {
		splices = append(splices, splice{
			offset: fset.Position(f.Name.End()).Offset,
			text:   "\n\nimport \"" + runtimePkg + "\"",
		})
	}

	sort.Slice(splices, func(i, j int) bool { return splices[i].offset > splices[j].offset })
	out := append([]byte(nil), src...)
	for _, s := range splices {
		out = append(out[:s.offset], append([]byte(s.text), out[s.offset:]...)...)
	}
	formatted, err := format.Source(out)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("instrumenter: formatting %s: %w", fset.Position(f.Pos()).Filename, err)
	}
	return formatted, symbols, skipped, nil
}

// symbolName renders the runtime-style symbol FuncName would report:
// pkg.Fn, pkg.T.M, pkg.(*T).M (type parameters stripped).
func symbolName(pkgName string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkgName + "." + fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	ptr := false
	if star, ok := t.(*ast.StarExpr); ok {
		ptr = true
		t = star.X
	}
	base := "?"
	switch v := stripIndex(t).(type) {
	case *ast.Ident:
		base = v.Name
	}
	if ptr {
		return pkgName + ".(*" + base + ")." + fd.Name.Name
	}
	return pkgName + "." + base + "." + fd.Name.Name
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

// hasTracePrologue detects an existing injected prologue: the body's
// first statement is `defer instrument.Trace(...)(…)`.
func hasTracePrologue(fd *ast.FuncDecl) bool {
	if len(fd.Body.List) == 0 {
		return false
	}
	def, ok := fd.Body.List[0].(*ast.DeferStmt)
	if !ok {
		return false
	}
	inner, ok := def.Call.Fun.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := inner.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Trace" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == "instrument"
}

// fileDeclares reports whether the file top-level-declares or imports
// the identifier name (which would shadow the injected import).
func fileDeclares(f *ast.File, name string) bool {
	for _, imp := range f.Imports {
		if imp.Name != nil && imp.Name.Name == name && strings.Trim(imp.Path.Value, `"`) != runtimePkg {
			return true
		}
		if imp.Name == nil {
			path := strings.Trim(imp.Path.Value, `"`)
			if path != runtimePkg && filepath.Base(path) == name {
				return true
			}
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.Name == name {
				return true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.Name == name {
							return true
						}
					}
				case *ast.TypeSpec:
					if s.Name.Name == name {
						return true
					}
				}
			}
		}
	}
	return false
}

// importsPath reports whether the file already imports path.
func importsPath(f *ast.File, path string) bool {
	for _, imp := range f.Imports {
		if strings.Trim(imp.Path.Value, `"`) == path {
			return true
		}
	}
	return false
}

// hasOwnConstraint reports whether the file's build constraint is the
// `!tag` line a previous in-place run added.
func hasOwnConstraint(f *ast.File, tag string) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if strings.TrimSpace(c.Text) == "//go:build !"+tag {
				return true
			}
		}
	}
	return false
}

// constrained reports whether the file has a build constraint
// (go:build or the legacy plus-build form).
func constrained(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if strings.HasPrefix(text, "go:build") || strings.HasPrefix(text, "+build") {
				return true
			}
		}
	}
	return false
}

// registrationFile renders the generated slot-registration file.
func registrationFile(res *Result, opts Options) ([]byte, error) {
	var b strings.Builder
	b.WriteString("// Code generated by tempest-instrument. DO NOT EDIT.\n")
	if opts.OutDir == "" {
		b.WriteString("\n//go:build " + opts.BuildTag + "\n")
	}
	fmt.Fprintf(&b, "\npackage %s\n\nimport \"%s\"\n\n", res.PkgName, runtimePkg)
	b.WriteString("// " + slotsVar + " binds the injected prologues to runtime trace slots;\n")
	b.WriteString("// index order matches the order functions were instrumented in.\n")
	fmt.Fprintf(&b, "var %s = instrument.Register(%q, []string{\n", slotsVar, res.PkgPath)
	for _, fn := range res.Funcs {
		fmt.Fprintf(&b, "\t%q,\n", fn)
	}
	b.WriteString("})\n")
	if len(res.Coarse) > 0 {
		b.WriteString("\n// The static instrumentation plan demotes these functions to coarse\n")
		b.WriteString("// call/time counting; the override applies at init, before any tracer\n")
		b.WriteString("// attaches.\nfunc init() {\n\tfor _, fn := range []string{\n")
		for _, fn := range res.Coarse {
			fmt.Fprintf(&b, "\t\t%q,\n", fn)
		}
		b.WriteString("\t} {\n\t\tinstrument.SetFunctionMode(fn, instrument.ModeCoarse)\n\t}\n}\n")
	}
	return format.Source([]byte(b.String()))
}

// pkgPath derives the registration label for dir: the package's
// module-derived import path, falling back to the directory base name.
func pkgPath(dir string) string {
	abs, err := filepath.Abs(dir)
	if err == nil {
		if modDir, modPath, merr := analysis.FindModule(abs); merr == nil {
			if rel, rerr := filepath.Rel(modDir, abs); rerr == nil && !strings.HasPrefix(rel, "..") {
				if rel == "." {
					return modPath
				}
				return modPath + "/" + filepath.ToSlash(rel)
			}
		}
	}
	return filepath.Base(dir)
}
