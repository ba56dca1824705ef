package main

import (
	"fmt"
	"regexp"
	"time"
)

// runValidate is the compile-and-run guard for a directory `go build
// ./...` does not reach: every workload at 1/50 size, untraced and
// traced, checking that BENCHMARK.json is well-formed, that each metric
// it names is emitted (runOnce counts a missing or unlisted metric as a
// failure) and that every oracle passes.
func runValidate(spec *benchSpec, seed int64, seconds float64) bool {
	start := time.Now()
	ok := true
	for _, p := range spec.check() {
		fmt.Println("# FAILED: BENCHMARK.json:", p)
		ok = false
	}
	for _, traced := range []bool{false, true} {
		out := runOnce(spec, "all", seed, seconds/50, traced)
		if !out.Correct {
			ok = false
		}
	}
	took := time.Since(start)
	verdict := "PASS"
	if took > 30*time.Second {
		fmt.Printf("# FAILED: validation took %.1fs, over its 30 s budget\n", took.Seconds())
		ok = false
	}
	if !ok {
		verdict = "FAIL"
	}
	fmt.Printf("# validate: %s in %.1fs (%d end-to-end and %d per-layer metrics, %d workloads)\n",
		verdict, took.Seconds(), len(spec.EndToEnd), len(spec.PerLayer), len(spec.Workloads))
	return ok
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// check holds BENCHMARK.json to the limits the harness refuses a file
// for, so a bad edit fails here and not after an hour of runs.
func (s *benchSpec) check() (problems []string) {
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	if n := len(s.Workloads); n < 2 || n > 8 {
		bad("%d workloads (2 to 8 allowed)", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		bad("%d end-to-end metrics (1 to 16 allowed)", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		bad("%d per-layer metrics (1 to 128 allowed)", n)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		bad("run_seconds %d (1 to 60 allowed)", s.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			bad("name %q is malformed", n)
		}
		if seen[n] {
			bad("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range s.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			bad("workload %s: why must be 1 to 200 characters", w.Name)
		}
		implemented := false
		for _, have := range workloads {
			implemented = implemented || have.name == w.Name
		}
		if !implemented {
			bad("workload %s is not implemented", w.Name)
		}
	}
	setup := false
	for i, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			bad("metric %s: unit %q is malformed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			bad("metric %s: better must be lower or higher", m.Name)
		}
		if endToEnd := i < len(s.EndToEnd); endToEnd && (m.Bound <= 0 || m.Bound > 0.25) {
			bad("metric %s: bound %g (above 0, at most 0.25)", m.Name, m.Bound)
		} else if !endToEnd && m.Bound != 0 {
			bad("metric %s: per-layer metrics have no bound", m.Name)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" && i < len(s.EndToEnd) {
			setup = true
		}
	}
	if !setup {
		bad("end_to_end must include setup_s (unit s, better lower)")
	}
	return problems
}
