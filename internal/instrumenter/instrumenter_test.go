package instrumenter

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const workloadSrc = `// Package work is an instrumenter fixture.
package work

import "sort"

// Alpha has a doc comment that must survive the rewrite.
func Alpha(xs []int) {
	sort.Ints(xs) // inline comment survives too
}

func beta() int { return 42 }

type Pool struct{ n int }

func (p *Pool) Run() { p.n++ }

func (p Pool) Size() int { return p.n }

type Box[T any] struct{ v T }

func (b *Box[T]) Get() T { return b.v }

func init() { _ = beta() }
`

func writePkg(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func fileByBase(t *testing.T, res *Result, base string) OutFile {
	t.Helper()
	for _, f := range res.Files {
		if filepath.Base(f.Path) == base {
			return f
		}
	}
	t.Fatalf("no output file %q (have %d files)", base, len(res.Files))
	return OutFile{}
}

func TestCopyModeInstrumentsAllFuncs(t *testing.T) {
	dir := writePkg(t, map[string]string{"work.go": workloadSrc})
	out := filepath.Join(t.TempDir(), "out")
	res, err := Instrument(dir, Options{OutDir: out})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"work.Alpha", "work.beta", "work.(*Pool).Run", "work.Pool.Size", "work.(*Box).Get"}
	if len(res.Funcs) != len(want) {
		t.Fatalf("Funcs = %v, want %v", res.Funcs, want)
	}
	for i := range want {
		if res.Funcs[i] != want[i] {
			t.Fatalf("Funcs[%d] = %q, want %q", i, res.Funcs[i], want[i])
		}
	}

	body := string(fileByBase(t, res, "work.go").Content)
	for i := range want {
		probe := "defer instrument.Trace(tempestInstrSlots[" + itoa(i) + "])()"
		if !strings.Contains(body, probe) {
			t.Errorf("rewritten file missing %q", probe)
		}
	}
	for _, keep := range []string{
		"// Alpha has a doc comment that must survive the rewrite.",
		"// inline comment survives too",
	} {
		if !strings.Contains(body, keep) {
			t.Errorf("rewrite dropped comment %q", keep)
		}
	}
	if strings.Count(body, `"tempest/instrument"`) != 1 {
		t.Errorf("runtime import not added exactly once:\n%s", body)
	}
	if strings.Contains(body, "func init() {\n\tdefer") {
		t.Error("init was instrumented; it must be skipped")
	}

	reg := string(fileByBase(t, res, RegFileName).Content)
	// Outside a module the label is the directory's base name.
	if !strings.Contains(reg, fmt.Sprintf("instrument.Register(%q, []string{", filepath.Base(dir))) {
		t.Errorf("registration missing Register call:\n%s", reg)
	}
	for _, fn := range want {
		if !strings.Contains(reg, `"`+fn+`"`) {
			t.Errorf("registration missing %q", fn)
		}
	}
	if strings.Contains(reg, "//go:build") {
		t.Error("copy-mode registration must not be build-tagged")
	}
}

func itoa(i int) string { return string(rune('0' + i)) }

func TestMatchExcludeFilters(t *testing.T) {
	dir := writePkg(t, map[string]string{"work.go": workloadSrc})
	res, err := Instrument(dir, Options{
		OutDir:  filepath.Join(t.TempDir(), "out"),
		Match:   regexp.MustCompile(`Pool`),
		Exclude: regexp.MustCompile(`Size`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Funcs) != 1 || res.Funcs[0] != "work.(*Pool).Run" {
		t.Fatalf("Funcs = %v, want only work.(*Pool).Run", res.Funcs)
	}
}

func TestInPlaceModeTagsAndTwins(t *testing.T) {
	dir := writePkg(t, map[string]string{"work.go": workloadSrc})
	res, err := Instrument(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(res); err != nil {
		t.Fatal(err)
	}

	orig, err := os.ReadFile(filepath.Join(dir, "work.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(orig), "//go:build !tempest_instr\n") {
		t.Fatalf("original lacks negated build tag:\n%.80s", orig)
	}
	if strings.Contains(string(orig), "instrument.Trace") {
		t.Fatal("original body was modified beyond the build tag")
	}

	twin, err := os.ReadFile(filepath.Join(dir, "work_tempest_instr.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(twin), "//go:build tempest_instr\n") {
		t.Fatalf("twin lacks build tag:\n%.80s", twin)
	}
	if !strings.Contains(string(twin), "defer instrument.Trace(tempestInstrSlots[0])()") {
		t.Fatal("twin missing prologue")
	}

	reg, err := os.ReadFile(filepath.Join(dir, RegFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(reg), "//go:build tempest_instr") {
		t.Fatal("in-place registration must be build-tagged")
	}

	// Re-running over the processed directory is an idempotent no-op.
	again, err := Instrument(dir, Options{})
	if err != nil {
		t.Fatalf("re-run errored: %v", err)
	}
	if len(again.Files) != 0 || len(again.Funcs) != 0 {
		t.Fatalf("re-run produced %d files / %v funcs, want none", len(again.Files), again.Funcs)
	}
}

func TestInPlaceRejectsExistingConstraint(t *testing.T) {
	dir := writePkg(t, map[string]string{"work.go": "//go:build linux\n\npackage work\n\nfunc F() {}\n"})
	if _, err := Instrument(dir, Options{}); err == nil {
		t.Fatal("expected error for pre-constrained file")
	}
}

func TestIdentifierCollisionRejected(t *testing.T) {
	dir := writePkg(t, map[string]string{"work.go": "package work\n\nvar instrument int\n\nfunc F() { instrument++ }\n"})
	if _, err := Instrument(dir, Options{OutDir: t.TempDir()}); err == nil {
		t.Fatal("expected error when file declares identifier \"instrument\"")
	}
}

func TestAlreadyInstrumentedFunctionSkipped(t *testing.T) {
	src := "package work\n\nimport \"tempest/instrument\"\n\n" +
		"func F() {\n\tdefer instrument.Trace(tempestInstrSlots[0])()\n}\n\nfunc G() {}\n"
	dir := writePkg(t, map[string]string{"work.go": src})
	res, err := Instrument(dir, Options{OutDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Funcs) != 1 || res.Funcs[0] != "work.G" {
		t.Fatalf("Funcs = %v, want only work.G", res.Funcs)
	}
}

func TestCopyModeOutputCompiles(t *testing.T) {
	// gofmt round-trip is the cheap compile proxy: format.Source already
	// ran inside the rewrite, so here we only assert it stayed stable.
	dir := writePkg(t, map[string]string{"work.go": workloadSrc})
	res, err := Instrument(dir, Options{OutDir: filepath.Join(t.TempDir(), "out")})
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(res); err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Files {
		if _, err := os.Stat(f.Path); err != nil {
			t.Errorf("Apply did not write %s: %v", f.Path, err)
		}
	}
	// Apply refuses to clobber non-Overwrite outputs.
	if err := Apply(res); err == nil {
		t.Error("second Apply should refuse to overwrite generated files")
	}
}
