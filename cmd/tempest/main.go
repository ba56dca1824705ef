// Command tempest profiles a workload on the simulated cluster and prints
// its thermal profile — the end-to-end flow of the paper's Figure 1:
// instrument, run, sample, parse, report.
//
// Usage:
//
//	tempest -bench ft -class S -nodes 4 -format report
//	tempest -bench micro-d -format plot
//	tempest -bench bt -class W -nodes 4 -format csv > bt.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"tempest"
	"tempest/internal/cluster"
	"tempest/internal/micro"
	"tempest/internal/nas"
	"tempest/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tempest:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tempest", flag.ContinueOnError)
	bench := fs.String("bench", "micro-d", "workload: ft|bt|sp|lu|ep|cg|cg2d|mg|is|micro-a..micro-e")
	class := fs.String("class", "S", "NAS problem class: S|W|A")
	nodes := fs.Int("nodes", 4, "cluster nodes")
	ranks := fs.Int("ranks", 1, "MPI ranks per node")
	seed := fs.Int64("seed", 1, "simulation seed")
	hetero := fs.Bool("hetero", true, "per-node thermal variation")
	unit := fs.String("unit", "F", "temperature unit: F|C")
	format := fs.String("format", "report", "output: report|csv|json|plot|gnuplot")
	sensor := fs.Int("sensor", 0, "sensor index for plot output")
	traceDir := fs.String("trace-dir", "", "directory to dump raw per-node traces")
	throttle := fs.String("throttle", "", "optimisation what-if: FUNC:UTILSCALE:TIMESCALE — run twice and print the comparison")
	if err := fs.Parse(args); err != nil {
		return err
	}

	u := tempest.Fahrenheit
	switch strings.ToUpper(*unit) {
	case "F":
	case "C":
		u = tempest.Celsius
	default:
		return fmt.Errorf("unknown unit %q", *unit)
	}

	body, cost, err := workload(*bench, *class)
	if err != nil {
		return err
	}
	cfg := tempest.Config{
		Nodes:         *nodes,
		RanksPerNode:  *ranks,
		Seed:          *seed,
		Heterogeneous: *hetero,
		Unit:          u,
		Cost:          cost,
	}
	if *throttle != "" {
		return runComparison(out, cfg, body, *throttle)
	}

	s, err := tempest.NewSession(cfg)
	if err != nil {
		return err
	}
	p, err := s.Run(body)
	if err != nil {
		return err
	}

	if *traceDir != "" {
		if err := dumpTraces(p, *traceDir); err != nil {
			return err
		}
	}

	switch *format {
	case "report":
		return p.WriteReport(out)
	case "csv":
		return p.WriteCSV(out)
	case "json":
		return p.WriteJSON(out)
	case "plot":
		return p.Plot(out, *sensor)
	case "gnuplot":
		return report.WriteGnuplot(out, p.Profile, *sensor)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
}

// workload resolves the -bench flag to a body and (for NAS codes) the
// rate-matched cost model.
func workload(bench, classStr string) (func(rc *tempest.Rank) error, *cluster.CostModel, error) {
	cost := nas.FTCost()
	if strings.HasPrefix(bench, "micro-") {
		d := micro.Durations{}
		var b micro.Bench
		switch strings.ToUpper(strings.TrimPrefix(bench, "micro-")) {
		case "A":
			b = micro.A(d)
		case "B":
			b = micro.B(d)
		case "C":
			b = micro.C(d)
		case "D":
			b = micro.D(d)
		case "E":
			b = micro.E(d)
		default:
			return nil, nil, fmt.Errorf("unknown micro-benchmark %q", bench)
		}
		return b.Body, nil, nil
	}
	class, err := nas.ParseClass(classStr)
	if err != nil {
		return nil, nil, err
	}
	if !slices.Contains(nas.Kernels, bench) {
		return nil, nil, fmt.Errorf("unknown benchmark %q", bench)
	}
	return func(rc *tempest.Rank) error { _, _, err := nas.Run(rc, bench, class); return err }, &cost, nil
}

// runComparison executes the workload twice — baseline and with the
// requested per-function throttle — and prints the question-4 trade-off.
func runComparison(out io.Writer, cfg tempest.Config, body func(rc *tempest.Rank) error, spec string) error {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return fmt.Errorf("throttle spec %q, want FUNC:UTILSCALE:TIMESCALE", spec)
	}
	var utilScale, timeScale float64
	if _, err := fmt.Sscanf(parts[1], "%f", &utilScale); err != nil {
		return fmt.Errorf("bad util scale %q: %w", parts[1], err)
	}
	if _, err := fmt.Sscanf(parts[2], "%f", &timeScale); err != nil {
		return fmt.Errorf("bad time scale %q: %w", parts[2], err)
	}
	th := map[string]tempest.Throttle{parts[0]: {UtilScale: utilScale, TimeScale: timeScale}}

	runOnce := func(t map[string]tempest.Throttle) (*tempest.Profile, error) {
		s, err := tempest.NewSession(cfg)
		if err != nil {
			return nil, err
		}
		return s.Run(func(rc *tempest.Rank) error {
			rc.SetThrottles(t)
			return body(rc)
		})
	}
	before, err := runOnce(nil)
	if err != nil {
		return err
	}
	after, err := runOnce(th)
	if err != nil {
		return err
	}
	cmp, err := before.Compare(after, 0)
	if err != nil {
		return err
	}
	return report.WriteComparison(out, cmp, cfg.Unit.String())
}

func dumpTraces(p *tempest.Profile, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for n := range p.Traces {
		f, err := os.Create(fmt.Sprintf("%s/node%d.tpst", dir, n))
		if err != nil {
			return err
		}
		if err := p.WriteTrace(f, n); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
