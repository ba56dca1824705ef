// Command tempest-instrument rewrites a Go package so every function
// records entry/exit through tempest's trace runtime — the source-level
// reproduction of building with `gcc -finstrument-functions` (paper
// §3.1), with the registration table standing in for the symbol lookup
// the original does against the ELF symbol table.
//
// Usage:
//
//	tempest-instrument -o DIR ./pkg     # copy mode: rewritten package in DIR
//	tempest-instrument -w ./pkg         # in-place: build-tagged twins next to originals
//	tempest-instrument -n ./pkg         # dry run: list what would be instrumented
//
// In-place mode leaves a plain `go build` byte-identical to the
// uninstrumented package; `go build -tags tempest_instr` selects the
// instrumented twins. Filter with -match / -exclude (regexps over
// symbols like "pkg.(*T).M").
//
// With -budget the static cost model (internal/analysis/costmodel)
// plans the instrumentation instead of hooking everything: functions
// whose predicted hook cost would blow the overhead budget are demoted
// to coarse counting or skipped entirely, cheapest-per-unit-of-hotness
// first. -plan writes the decision set as reviewable JSON:
//
//	tempest-instrument -n -budget 0.05 -plan - ./pkg
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"

	"tempest/internal/analysis"
	"tempest/internal/analysis/callgraph"
	"tempest/internal/analysis/costmodel"
	"tempest/internal/instrumenter"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("tempest-instrument", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		outDir  = fs.String("o", "", "copy mode: write the rewritten package to this `dir`")
		inPlace = fs.Bool("w", false, "in-place mode: add build-tagged instrumented twins beside the originals")
		dryRun  = fs.Bool("n", false, "dry run: report what would be instrumented, write nothing")
		match   = fs.String("match", "", "only instrument symbols matching this `regexp`")
		exclude = fs.String("exclude", "", "skip symbols matching this `regexp`")
		tag     = fs.String("tag", instrumenter.DefaultBuildTag, "build `tag` for in-place twins")
		quiet   = fs.Bool("q", false, "suppress the per-function listing")
		budget  = fs.Float64("budget", 0, "overhead budget as a `fraction` of predicted runtime (e.g. 0.05); the static cost model demotes cheap-but-chatty functions to coarse or skip until the estimate fits")
		planOut = fs.String("plan", "", "write the reviewable instrumentation-plan JSON to this `file` (\"-\" for stdout); with -n, plan without rewriting")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: tempest-instrument [-o dir | -w | -n] [-match re] [-exclude re] package-dir")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	modes := 0
	for _, on := range []bool{*outDir != "", *inPlace, *dryRun} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		fmt.Fprintln(os.Stderr, "tempest-instrument: exactly one of -o, -w, -n is required")
		return 2
	}

	opts := instrumenter.Options{OutDir: *outDir, BuildTag: *tag}
	var err error
	if *match != "" {
		if opts.Match, err = regexp.Compile(*match); err != nil {
			fmt.Fprintf(os.Stderr, "tempest-instrument: -match: %v\n", err)
			return 2
		}
	}
	if *exclude != "" {
		if opts.Exclude, err = regexp.Compile(*exclude); err != nil {
			fmt.Fprintf(os.Stderr, "tempest-instrument: -exclude: %v\n", err)
			return 2
		}
	}
	if *dryRun {
		// A dry run plans as copy mode into a throwaway path so in-place
		// constraints are not required to be absent.
		opts.OutDir = os.TempDir()
	}

	if *budget > 0 || *planOut != "" {
		plan, err := buildPlan(fs.Arg(0), *budget)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tempest-instrument: %v\n", err)
			return 1
		}
		opts.Plan = plan
		fmt.Fprintf(os.Stderr, "tempest-instrument: plan: predicted overhead %.1f%% -> %.1f%% (budget %.1f%%), %d functions planned\n",
			100*plan.BaselineOverhead, 100*plan.EstimatedOverhead, 100*plan.Budget, len(plan.Entries))
		if *planOut != "" {
			if err := writePlan(plan, *planOut); err != nil {
				fmt.Fprintf(os.Stderr, "tempest-instrument: %v\n", err)
				return 1
			}
		}
	}

	res, err := instrumenter.Instrument(fs.Arg(0), opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tempest-instrument: %v\n", err)
		return 1
	}
	if !*quiet {
		// Keep stdout clean for the plan when it goes there too.
		names := os.Stdout
		if *planOut == "-" {
			names = os.Stderr
		}
		for _, fn := range res.Funcs {
			fmt.Fprintln(names, fn)
		}
	}
	if len(res.Skipped) > 0 || len(res.Coarse) > 0 {
		fmt.Fprintf(os.Stderr, "tempest-instrument: plan keeps %d functions in detail, demotes %d to coarse, skips %d\n",
			len(res.Funcs)-len(res.Coarse), len(res.Coarse), len(res.Skipped))
	}
	if *dryRun {
		fmt.Fprintf(os.Stderr, "tempest-instrument: would instrument %d functions in %s\n", len(res.Funcs), res.PkgPath)
		return 0
	}
	if len(res.Files) == 0 {
		fmt.Fprintf(os.Stderr, "tempest-instrument: %s already instrumented; nothing to do\n", res.PkgPath)
		return 0
	}
	if err := instrumenter.Apply(res); err != nil {
		fmt.Fprintf(os.Stderr, "tempest-instrument: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "tempest-instrument: instrumented %d functions in %s (%d files)\n",
		len(res.Funcs), res.PkgPath, len(res.Files))
	return 0
}

// buildPlan loads the target package (and its module-internal
// dependencies) through the offline loader, builds the interprocedural
// call graph, prices every function's hooks and returns the budgeted
// instrumentation plan.
func buildPlan(dir string, budget float64) (*costmodel.Plan, error) {
	// Loader patterns are module-relative: turn the target directory
	// into one so the plan covers the package being instrumented (plus
	// its module-internal dependencies), not the module root.
	pattern := "."
	if abs, err := filepath.Abs(dir); err == nil {
		if modDir, _, err := analysis.FindModule(abs); err == nil {
			if rel, err := filepath.Rel(modDir, abs); err == nil {
				pattern = "./" + filepath.ToSlash(rel)
			}
		}
	}
	pkgs, err := analysis.Load(analysis.LoadConfig{Dir: dir}, pattern)
	if err != nil {
		return nil, err
	}
	g, err := callgraph.Build(pkgs)
	if err != nil {
		return nil, err
	}
	return costmodel.Analyze(g).BuildPlan(budget), nil
}

// writePlan renders the plan to path, stdout for "-".
func writePlan(p *costmodel.Plan, path string) error {
	if path != "-" {
		return p.WriteJSON(path)
	}
	raw, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(raw, '\n'))
	return err
}
