package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runRow is one line of _bench/out/runs.jsonl: one run, every metric it
// produced, and the environment it ran in.
type runRow struct {
	Time      string                 `json:"time"`
	Commit    string                 `json:"commit"`
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Env       map[string]string      `json:"env"`
}

const runsFile = outDir + "/runs.jsonl"

// appendRun adds the run to runs.jsonl. Failing to write the log is
// reported but does not fail the run.
func appendRun(workload string, seed int64, seconds float64, traced bool, storeKind string, out runOutput) {
	row := runRow{
		Time: time.Now().UTC().Format(time.RFC3339), Commit: commitID(),
		Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		Correct: out.Correct, Attempted: out.Attempted, Failed: out.Failed, Metrics: out.Metrics,
		Env: map[string]string{
			"nproc":      fmt.Sprint(runtime.NumCPU()),
			"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
			"go":         runtime.Version(),
			"kernel":     kernelRelease(),
			"store_fs":   storeKind,
		},
	}
	line, err := json.Marshal(row)
	if err == nil {
		err = os.MkdirAll(outDir, 0o755)
	}
	if err == nil {
		var f *os.File
		if f, err = os.OpenFile(runsFile, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644); err == nil {
			_, err = f.Write(append(line, '\n'))
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "_bench: run not logged:", err)
	}
}

// commitID names the code that ran: the git commit when the checkout is
// a repository, "unknown" otherwise (the harness's checkouts are not).
func commitID() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func kernelRelease() string {
	var u syscall.Utsname
	if syscall.Uname(&u) != nil {
		return "unknown"
	}
	var b []byte
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// analyzeRuns groups runs.jsonl by workload and tracing and prints, per
// metric, the median, quartiles and standard deviation over the runs.
func analyzeRuns(spec *benchSpec) bool {
	f, err := os.Open(runsFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "_bench: nothing to analyze:", err)
		return false
	}
	defer f.Close()
	type group struct {
		runs   int
		failed int
		values map[string][]float64
	}
	groups := map[string]*group{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var row runRow
		if json.Unmarshal(sc.Bytes(), &row) != nil {
			continue
		}
		key := fmt.Sprintf("%s commit=%s seconds=%g traced=%v", row.Workload, row.Commit, row.Seconds, row.Traced)
		g := groups[key]
		if g == nil {
			g = &group{values: map[string][]float64{}}
			groups[key] = g
		}
		g.runs++
		if !row.Correct {
			g.failed++
		}
		for name, m := range row.Metrics {
			g.values[name] = append(g.values[name], m.Value)
		}
	}
	var keys []string
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type cell struct {
		Unit   string  `json:"unit"`
		N      int     `json:"n"`
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		Std    float64 `json:"std"`
	}
	type groupOut struct {
		Group     string          `json:"group"`
		Runs      int             `json:"runs"`
		Incorrect int             `json:"incorrect"`
		Metrics   map[string]cell `json:"metrics"`
	}
	var summary []groupOut
	for _, k := range keys {
		g := groups[k]
		out := groupOut{Group: k, Runs: g.runs, Incorrect: g.failed, Metrics: map[string]cell{}}
		fmt.Printf("\n%s: %d runs, %d incorrect\n", k, g.runs, g.failed)
		fmt.Printf("  %-34s %-8s %4s %12s %12s %12s %12s %8s\n", "metric", "unit", "n", "median", "q1", "q3", "std", "iqr/med")
		for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
			vs := g.values[m.Name]
			if len(vs) == 0 {
				continue
			}
			c := cell{Unit: m.Unit, N: len(vs), Median: median(vs), Q1: vs[0], Q3: vs[0], Std: stddev(vs)}
			if len(vs) >= 2 {
				c.Q1, _, c.Q3 = quartiles(vs)
			}
			out.Metrics[m.Name] = c
			fmt.Printf("  %-34s %-8s %4d %12.6g %12.6g %12.6g %12.4g %8s\n", m.Name, m.Unit, c.N, c.Median, c.Q1, c.Q3, c.Std, share(c.Q3-c.Q1, c.Median))
		}
		summary = append(summary, out)
	}
	// The same table for machines: what _bench/results/*.json are copies of.
	raw, err := json.MarshalIndent(summary, "", " ")
	if err == nil {
		err = os.WriteFile(outDir+"/summary.json", append(raw, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "_bench: summary not written:", err)
		return false
	}
	fmt.Printf("\nwritten to %s/summary.json\n", outDir)
	return true
}

func share(num, den float64) string {
	if den == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*num/den)
}

// selfRun re-executes this binary for one run, the way the harness runs
// it: a fresh process per run, result on the last line of stdout.
func selfRun(workload string, seed int64, seconds float64) (runOutput, error) {
	exe, err := os.Executable()
	if err != nil {
		return runOutput{}, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	var out runOutput
	if jerr := json.Unmarshal(lines[len(lines)-1], &out); jerr != nil {
		return out, fmt.Errorf("run %s seed %d: no result line (%v, %v)", workload, seed, err, jerr)
	}
	if err != nil {
		// Exit status 1 with a result line is an incorrect run; show why.
		for _, l := range lines {
			if bytes.HasPrefix(l, []byte("# FAILED")) {
				fmt.Fprintf(os.Stderr, "  %s\n", l)
			}
		}
	}
	return out, nil
}

// runAA runs two interleaved sets of n runs per workload of this one
// build — set A on odd seeds, set B on even — and reports, per workload
// and end-to-end metric, each set's spread and how far the two medians
// are apart, against the bound BENCHMARK.json fixes. It is how the
// bounds are set and checked: a bound must sit above what two sets of
// the same code show.
func runAA(spec *benchSpec, n int, seed int64, seconds float64) bool {
	type cell struct{ a, b []float64 }
	ok := true
	for _, w := range spec.Workloads {
		cells := map[string]*cell{}
		for i := 0; i < n; i++ {
			for set := 0; set < 2; set++ {
				s := seed + int64(2*i+set)
				fmt.Printf("# A/A %s run %d/%d set %c seed %d\n", w.Name, i+1, n, 'A'+set, s)
				out, err := selfRun(w.Name, s, seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, "_bench:", err)
					return false
				}
				if !out.Correct {
					ok = false
				}
				for name, m := range out.Metrics {
					c := cells[name]
					if c == nil {
						c = &cell{}
						cells[name] = c
					}
					if set == 0 {
						c.a = append(c.a, m.Value)
					} else {
						c.b = append(c.b, m.Value)
					}
				}
			}
		}
		fmt.Printf("\nA/A %s: %d runs per set, seeds %d…%d\n", w.Name, n, seed, seed+int64(2*n-1))
		fmt.Printf("  %-28s %12s %12s %9s %9s %9s %7s  %s\n", "metric", "median A", "median B", "B worse", "spread A", "spread B", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			c := cells[m.Name]
			if c == nil || len(c.a) < 2 || len(c.b) < 2 {
				continue
			}
			ma, mb := median(c.a), median(c.b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			a1, _, a3 := quartiles(c.a)
			b1, _, b3 := quartiles(c.b)
			sa, sb := (a3-a1)/ma, (b3-b1)/mb
			verdict := "inside"
			switch {
			case worse > m.Bound || -worse > m.Bound:
				verdict, ok = "MEDIANS APART", false
			case m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound):
				verdict, ok = "SPREAD ABOVE BOUND", false
			case m.Name != "setup_s" && (sa > m.Bound/3 || sb > m.Bound/3):
				verdict = "inside (spread above a third of the bound)"
			}
			fmt.Printf("  %-28s %12.6g %12.6g %8.1f%% %8.1f%% %8.1f%% %6.0f%%  %s\n", m.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	fmt.Printf("\nevery run is a row in %s; `go run ./_bench -analyze` summarises them\n", runsFile)
	return ok
}
