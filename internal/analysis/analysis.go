// Package analysis is Tempest's static-analysis framework: a compact,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// driver model, built directly on go/parser, go/types and the toolchain's
// export data (via `go list -export`).
//
// The paper's profiler leans on compiler support (-finstrument-functions)
// rather than programmer discipline; this package plays the same role for
// the Go reproduction's own invariants. Each Analyzer encodes one
// cross-package runtime contract — Enter/Exit pairing, virtual-time
// purity, documented lock discipline, wire-frame sequencing, the sensor
// NaN contract — and cmd/tempest-vet runs the whole suite over the repo
// in CI, turning conventions that previously lived in comments and tests
// into machine-checked rules.
//
// Diagnostics can be silenced at a specific site with a
// `//tempest:ignore <pass>[ <pass>...]` comment on the flagged line or
// the line directly above it (`//tempest:ignore all` silences every
// pass). Ignores are for intentional, documented exceptions — e.g. the
// real-clock reads inside vclock.RealClock itself.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one invariant checker. It mirrors the x/tools
// analysis.Analyzer shape so passes read idiomatically and could migrate
// to the upstream framework wholesale.
type Analyzer struct {
	// Name identifies the pass in diagnostics and ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Run inspects one package and reports findings via pass.Report.
	// Exactly one of Run and RunProgram must be set.
	Run func(pass *Pass) error
	// RunProgram inspects the whole loaded package set at once. Passes
	// whose invariant spans package boundaries (lock-acquisition order,
	// goroutine lifecycles through cross-package helpers) use this form;
	// the driver calls it exactly once per Run invocation.
	RunProgram func(pass *ProgramPass) error
}

// Program is the whole loaded package set handed to program-wide
// analyzers. All packages share one FileSet (the loader's).
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package
}

// ProgramPass carries the whole program to a program-wide Analyzer.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program
	// Report records one diagnostic; the driver filters ignored sites.
	Report func(Diagnostic)
}

// Reportf formats and reports a diagnostic at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Pass carries one package's syntax and type information to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report records one diagnostic. The driver filters ignored sites
	// and sorts the final list.
	Report func(Diagnostic)
}

// Reportf formats and reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	// Analyzer is filled in by the driver.
	Analyzer string
}

// Finding is a resolved diagnostic, positioned for printing.
type Finding struct {
	Position token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the canonical file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Position, f.Analyzer, f.Message)
}

// Run executes each analyzer over each loaded package and returns the
// surviving findings sorted by position. Ignore directives
// (//tempest:ignore) are applied here so every analyzer gets suppression
// for free.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		ignores := collectIgnores(pkg)
		for _, a := range analyzers {
			if a.Run == nil {
				continue // program-wide analyzer; handled below
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
			}
			name := a.Name
			pass.Report = func(d Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				if ignores.suppressed(name, pos) {
					return
				}
				findings = append(findings, Finding{Position: pos, Analyzer: name, Message: d.Message})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	if len(pkgs) > 0 {
		// Program-wide analyzers see the whole set once, with every
		// package's ignore directives in effect.
		var allIgnores []ignoreSet
		for _, pkg := range pkgs {
			allIgnores = append(allIgnores, collectIgnores(pkg))
		}
		prog := &Program{Fset: pkgs[0].Fset, Pkgs: pkgs}
		for _, a := range analyzers {
			if a.RunProgram == nil {
				continue
			}
			name := a.Name
			pass := &ProgramPass{Analyzer: a, Prog: prog}
			pass.Report = func(d Diagnostic) {
				pos := prog.Fset.Position(d.Pos)
				for _, ig := range allIgnores {
					if ig.suppressed(name, pos) {
						return
					}
				}
				findings = append(findings, Finding{Position: pos, Analyzer: name, Message: d.Message})
			}
			if err := a.RunProgram(pass); err != nil {
				return nil, fmt.Errorf("analysis %s: %w", a.Name, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}
