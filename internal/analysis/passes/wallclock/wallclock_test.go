package wallclock_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tempest/internal/analysis"
	"tempest/internal/analysis/analysistest"
	"tempest/internal/analysis/passes/wallclock"
)

func TestWallclock(t *testing.T) {
	analysistest.Run(t, wallclock.Analyzer, "internal/vclock", "othertime")
}

// TestWallclockBitesOnThermal runs the pass over a copy of the real
// internal/thermal/noise.go: the copy as it stands draws nothing, and
// the same file with one time.Now planted in OUProcess.Step draws
// exactly one diagnostic.
func TestWallclockBitesOnThermal(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "..", "thermal", "noise.go"))
	if err != nil {
		t.Fatal(err)
	}
	src := string(raw)
	if findings := analyzeThermal(t, src); len(findings) != 0 {
		t.Errorf("the real noise.go draws %d diagnostics, want none: %v", len(findings), findings)
	}
	const anchor = "\tif dt <= 0 {\n"
	mutant := strings.Replace(src, anchor, "\t_ = time.Now()\n"+anchor, 1)
	if mutant == src {
		t.Fatalf("OUProcess.Step in internal/thermal/noise.go no longer contains %q; update the anchor", anchor)
	}
	mutant = strings.Replace(mutant, "package thermal\n", "package thermal\n\nimport \"time\"\n", 1)
	findings := analyzeThermal(t, mutant)
	if len(findings) != 1 || !strings.Contains(findings[0].Message, "time.Now") {
		t.Errorf("noise.go with a planted time.Now draws %v, want one time.Now diagnostic", findings)
	}
}

// analyzeThermal runs the pass over src as package internal/thermal.
func analyzeThermal(t *testing.T, src string) []analysis.Finding {
	t.Helper()
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "thermal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "noise.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(analysis.LoadConfig{Dir: ".", ExtraRoot: root}, "internal/thermal")
	if err != nil {
		t.Fatalf("loading the fixture: %v\n%s", err, src)
	}
	findings, err := analysis.Run(pkgs, []*analysis.Analyzer{wallclock.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	return findings
}
