package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func fixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	src := "package fx\n\nfunc A() {}\n\nfunc B() {}\n"
	if err := os.WriteFile(filepath.Join(dir, "fx.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestCopyMode(t *testing.T) {
	dir := fixture(t)
	out := filepath.Join(t.TempDir(), "out")
	if code := run([]string{"-q", "-o", out, dir}); code != 0 {
		t.Fatalf("copy mode exited %d", code)
	}
	b, err := os.ReadFile(filepath.Join(out, "fx.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "instrument.Trace") {
		t.Fatal("output not instrumented")
	}
}

func TestDryRunWritesNothing(t *testing.T) {
	dir := fixture(t)
	before, _ := os.ReadDir(dir)
	if code := run([]string{"-q", "-n", dir}); code != 0 {
		t.Fatalf("dry run exited %d", code)
	}
	after, _ := os.ReadDir(dir)
	if len(after) != len(before) {
		t.Fatal("dry run changed the package directory")
	}
}

func TestModeFlagsAreExclusive(t *testing.T) {
	if code := run([]string{"-n", "-w", "someplace"}); code != 2 {
		t.Fatalf("conflicting modes exited %d, want 2", code)
	}
	if code := run([]string{"someplace"}); code != 2 {
		t.Fatalf("no mode exited %d, want 2", code)
	}
}

func TestBadRegexpIsUsageError(t *testing.T) {
	if code := run([]string{"-n", "-match", "(", "x"}); code != 2 {
		t.Fatalf("bad regexp exited %d, want 2", code)
	}
}

// TestAutoinstrPlanGolden pins the -budget plan for the example workload
// byte for byte: a change to the planner's hook prices, its work-unit
// conversion or its demotion order shows up as a diff here.
func TestAutoinstrPlanGolden(t *testing.T) {
	out := filepath.Join(t.TempDir(), "plan.json")
	if code := run([]string{"-n", "-q", "-budget", "0.05", "-plan", out, "../../examples/autoinstr/workload"}); code != 0 {
		t.Fatalf("plan run exited %d", code)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "autoinstr_plan.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("plan changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestInPlaceRoundTrip(t *testing.T) {
	dir := fixture(t)
	if code := run([]string{"-q", "-w", dir}); code != 0 {
		t.Fatalf("in-place exited %d", code)
	}
	if _, err := os.Stat(filepath.Join(dir, "fx_tempest_instr.go")); err != nil {
		t.Fatal("twin missing:", err)
	}
	// Second run is a no-op, not a failure.
	if code := run([]string{"-q", "-w", dir}); code != 0 {
		t.Fatalf("in-place re-run exited %d", code)
	}
}
