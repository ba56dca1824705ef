package naneq_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tempest/internal/analysis"
	"tempest/internal/analysis/analysistest"
	"tempest/internal/analysis/passes/naneq"
)

func TestNaNEq(t *testing.T) {
	analysistest.Run(t, naneq.Analyzer, "a")
}

// TestNaNEqBitesOnSensors runs the pass over a copy of the package whose
// NaN contract it guards: the copy draws no diagnostic, and the same copy
// with the resilient wrapper's math.IsNaN(v) written v != v draws one.
func TestNaNEqBitesOnSensors(t *testing.T) {
	const anchor = "math.IsNaN(v) ||"
	files, err := filepath.Glob(filepath.Join("..", "..", "..", "sensors", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for want, plant := range []bool{false, true} {
		root := t.TempDir()
		dir := filepath.Join(root, "internal", "sensors")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			raw, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			src := string(raw)
			if plant && filepath.Base(f) == "resilient.go" {
				if !strings.Contains(src, anchor) {
					t.Fatalf("internal/sensors/resilient.go no longer contains %q; update the anchor", anchor)
				}
				// The blank use keeps the math import alive.
				src = strings.Replace(src, anchor, "v != v ||", 1) + "\nvar _ = math.Abs\n"
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		pkgs, err := analysis.Load(analysis.LoadConfig{Dir: ".", ExtraRoot: root}, "internal/sensors")
		if err != nil {
			t.Fatal(err)
		}
		findings, err := analysis.Run(pkgs, []*analysis.Analyzer{naneq.Analyzer})
		if err != nil {
			t.Fatal(err)
		}
		if len(findings) != want || want == 1 && !strings.Contains(findings[0].Message, "self-comparison") {
			t.Errorf("internal/sensors, planted %v: %v, want %d self-comparison diagnostics", plant, findings, want)
		}
	}
}
