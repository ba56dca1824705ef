package costmodel

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"tempest/internal/analysis"
	"tempest/internal/analysis/callgraph"
)

var update = flag.Bool("update", false, "rewrite the golden static ranking")

// litSym matches the instrumenter symbol shape of function literals
// ("pkg.Fn.func1"), which must never appear in a plan.
var litSym = regexp.MustCompile(`\.func\d+$`)

// loadRepo builds the whole-module graph and model once per test run.
func loadRepo(t *testing.T) *Model {
	t.Helper()
	pkgs, err := analysis.Load(analysis.LoadConfig{Dir: "../../.."}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	g, err := callgraph.Build(pkgs, callgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return Analyze(g, Options{})
}

// TestRepoStaticTop20Golden pins the static hot-spot ranking of a small
// frozen tree (testdata/src/frozen: nested loops, recursion, interface
// dispatch, literals, calls across packages). The golden file is the
// regression tripwire for the whole interprocedural stack — loader, graph
// construction, loop weighting, SCC propagation, frequency split: a
// change anywhere that reorders the predicted top 20 shows up as a diff
// here, and nothing else does — it used to rank this repository, and
// moved with every PR that touched a hot function. Regenerate
// deliberately with `go test ./internal/analysis/costmodel -run Golden
// -update`.
func TestRepoStaticTop20Golden(t *testing.T) {
	pkgs, err := analysis.Load(analysis.LoadConfig{Dir: ".", ExtraRoot: filepath.Join("testdata", "src")}, "frozen/...")
	if err != nil {
		t.Fatal(err)
	}
	g, err := callgraph.Build(pkgs, callgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i, fc := range Analyze(g, Options{}).Ranked() {
		if i >= 20 {
			break
		}
		b.WriteString(fc.Node.ID)
		b.WriteByte('\n')
	}
	got := b.String()

	golden := filepath.Join("testdata", "frozen_top20.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("static top-20 ranking changed (rerun with -update if intended):\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestRepoPlanRespectsBudget drives the planner over the whole module:
// the baseline (everything in detail) must blow a 5% budget, the plan
// must land under it, and the demotions must be real.
func TestRepoPlanRespectsBudget(t *testing.T) {
	m := loadRepo(t)
	const budget = 0.05
	p := m.BuildPlan(PlanOptions{Budget: budget})
	if p.BaselineOverhead <= budget {
		t.Fatalf("baseline overhead %.4f under budget; nothing to plan", p.BaselineOverhead)
	}
	if p.EstimatedOverhead > budget {
		t.Fatalf("planned overhead %.4f exceeds budget %.2f", p.EstimatedOverhead, budget)
	}
	var detail, coarse, skip int
	for _, e := range p.Entries {
		switch e.Mode {
		case "detail":
			detail++
		case "coarse":
			coarse++
		case "skip":
			skip++
			if e.Reason == "" {
				t.Errorf("%s skipped without a recorded reason", e.Sym)
			}
		default:
			t.Errorf("%s has unknown mode %q", e.Sym, e.Mode)
		}
		if litSym.MatchString(e.Sym) {
			t.Errorf("function literal %s leaked into the plan", e.Sym)
		}
	}
	if detail == 0 || skip == 0 {
		t.Errorf("degenerate plan: detail=%d coarse=%d skip=%d", detail, coarse, skip)
	}

	// MinMode "coarse" must keep every function at least counted.
	floored := m.BuildPlan(PlanOptions{Budget: budget, MinMode: "coarse"})
	for _, e := range floored.Entries {
		if e.Mode == "skip" {
			t.Fatalf("MinMode coarse still skipped %s", e.Sym)
		}
	}
}

// TestPlanRoundTrip pins the reviewable-JSON contract -plan writes and
// -policy-priors reads back.
func TestPlanRoundTrip(t *testing.T) {
	m := loadRepo(t)
	p := m.BuildPlan(PlanOptions{Budget: 0.05})
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := p.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParsePlan(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Entries) != len(p.Entries) || back.Budget != p.Budget {
		t.Fatalf("round trip lost entries: %d != %d", len(back.Entries), len(p.Entries))
	}
	for i := range back.Entries {
		if back.Entries[i] != p.Entries[i] {
			t.Fatalf("entry %d changed across round trip: %+v != %+v", i, back.Entries[i], p.Entries[i])
		}
	}
	if got := back.Mode(p.Entries[0].Sym); got != p.Entries[0].Mode {
		t.Fatalf("Mode(%s) = %s after round trip, want %s", p.Entries[0].Sym, got, p.Entries[0].Mode)
	}
	if got := back.Mode("no.SuchFunction"); got != "detail" {
		t.Fatalf("unknown symbol mode = %q, want detail default", got)
	}
}

// TestLoadHookCosts reads the committed instrumentation benchmark so
// the parser and the file's shape cannot drift apart.
func TestLoadHookCosts(t *testing.T) {
	hc, err := LoadHookCosts("../../../BENCH_instrument.json")
	if err != nil {
		t.Fatal(err)
	}
	if hc.DetailNS <= hc.CoarseNS || hc.CoarseNS <= 0 {
		t.Fatalf("implausible hook costs from committed benchmark: %+v", hc)
	}
	if _, err := LoadHookCosts("does-not-exist.json"); err == nil {
		t.Fatal("missing file did not error")
	}
}

// BenchmarkRepoAnalysis measures graph construction plus cost analysis
// over the entire repository — the number scripts/bench/analysis_bench.sh
// commits as BENCH_analysis.json.
func BenchmarkRepoAnalysis(b *testing.B) {
	pkgs, err := analysis.Load(analysis.LoadConfig{Dir: "../../.."}, "./...")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := callgraph.Build(pkgs, callgraph.Options{})
		if err != nil {
			b.Fatal(err)
		}
		m := Analyze(g, Options{})
		if len(m.Costs) == 0 {
			b.Fatal("empty model")
		}
	}
}

// BenchmarkRepoLoad isolates the loader (export data + parse + type
// check) so regressions in Build/Analyze are distinguishable from
// loader cost in the committed baseline.
func BenchmarkRepoLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pkgs, err := analysis.Load(analysis.LoadConfig{Dir: "../../.."}, "./...")
		if err != nil {
			b.Fatal(err)
		}
		if len(pkgs) == 0 {
			b.Fatal("no packages")
		}
	}
}
